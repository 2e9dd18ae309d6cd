//! Batched ingress lookups: the LFE's slot-train front end.
//!
//! Hardware forwarding engines never look addresses up one at a time —
//! they pipeline a train of independent loads against the compiled FIB
//! so the table's memory latency overlaps across packets. This module
//! is the simulator's equivalent: each linecard pre-draws a train of
//! [`Arrival`]s from its dedicated traffic RNG and resolves all their
//! destinations in one [`Dir248Fib::lookup_batch`] call.
//!
//! Drawing ahead is observationally identical to drawing on demand:
//! the per-LC traffic RNG feeds *only* that linecard's arrival stream,
//! so the i-th arrival is the same bytes either way. Route churn is
//! handled by stamping the train with the FIB's generation counter and
//! re-batching the unconsumed tail when the stamp goes stale, so every
//! popped lookup result equals what a fresh `lookup` would return at
//! pop time.

use dra_net::addr::Ipv4Addr;
use dra_net::fib::Dir248Fib;
use dra_net::traffic::{Arrival, PoissonGen};
use rand::Rng;

/// Arrivals pre-drawn (and destinations batch-resolved) per train.
pub(crate) const LOOKUP_TRAIN: usize = 32;

/// One linecard's pre-resolved arrival train.
#[derive(Debug)]
pub struct ArrivalTrain {
    arrivals: [Arrival; LOOKUP_TRAIN],
    dsts: [Ipv4Addr; LOOKUP_TRAIN],
    egress: [Option<u16>; LOOKUP_TRAIN],
    /// Next unconsumed index; `LOOKUP_TRAIN` means empty.
    pos: usize,
    /// FIB generation the `egress` entries were batched under.
    generation: u64,
}

impl Default for ArrivalTrain {
    fn default() -> Self {
        Self::new()
    }
}

impl ArrivalTrain {
    /// An empty train; the first [`ArrivalTrain::pop`] fills it.
    pub fn new() -> Self {
        ArrivalTrain {
            arrivals: [Arrival {
                dt: 0.0,
                ip_bytes: 0,
                dst: Ipv4Addr(0),
            }; LOOKUP_TRAIN],
            dsts: [Ipv4Addr(0); LOOKUP_TRAIN],
            egress: [None; LOOKUP_TRAIN],
            pos: LOOKUP_TRAIN,
            generation: 0,
        }
    }

    /// Pop the next arrival together with its routed egress linecard,
    /// refilling the train from `gen`/`rng` when exhausted and
    /// re-batching the unconsumed tail if `fib` changed since the
    /// train's lookups were resolved.
    pub fn pop<R: Rng>(
        &mut self,
        gen: &mut PoissonGen,
        rng: &mut R,
        fib: &Dir248Fib,
    ) -> (Arrival, Option<u16>) {
        if self.pos == LOOKUP_TRAIN {
            for (a, d) in self.arrivals.iter_mut().zip(&mut self.dsts) {
                *a = gen.next_arrival(rng);
                *d = a.dst;
            }
            fib.lookup_batch(&self.dsts, &mut self.egress);
            self.pos = 0;
            self.generation = fib.generation();
        } else if self.generation != fib.generation() {
            // Route churn since batching: re-resolve what's left.
            fib.lookup_batch(&self.dsts[self.pos..], &mut self.egress[self.pos..]);
            self.generation = fib.generation();
        }
        let i = self.pos;
        self.pos += 1;
        (self.arrivals[i], self.egress[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dra_net::addr::Ipv4Prefix;
    use dra_net::fib::Fib;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn fib_for(n: usize) -> Dir248Fib {
        let mut fib = Dir248Fib::new();
        for lc in 0..n {
            fib.insert(
                Ipv4Prefix::new(Ipv4Addr::from_octets(10, lc as u8, 0, 0), 16),
                lc as u16,
            );
        }
        fib
    }

    fn gen_for(n: usize) -> PoissonGen {
        let bases: Vec<Ipv4Addr> = (1..n)
            .map(|lc| Ipv4Addr::from_octets(10, lc as u8, 0, 0))
            .collect();
        PoissonGen::new(1.5e9, &bases)
    }

    #[test]
    fn train_matches_unbatched_draws_and_lookups() {
        let fib = fib_for(6);
        let mut train = ArrivalTrain::new();
        let mut gen_a = gen_for(6);
        let mut gen_b = gen_for(6);
        let mut rng_a = SmallRng::seed_from_u64(77);
        let mut rng_b = SmallRng::seed_from_u64(77);
        for _ in 0..(3 * LOOKUP_TRAIN + 5) {
            let (a, egress) = train.pop(&mut gen_a, &mut rng_a, &fib);
            let expect = gen_b.next_arrival(&mut rng_b);
            assert_eq!(a, expect);
            assert_eq!(egress, fib.lookup(a.dst));
        }
    }

    #[test]
    fn route_churn_rebatches_the_unconsumed_tail() {
        let mut fib = fib_for(4);
        let mut train = ArrivalTrain::new();
        let mut gen = gen_for(4);
        let mut rng = SmallRng::seed_from_u64(5);
        // Consume a few entries, then withdraw every route: the rest
        // of the train must come back unroutable, not stale.
        for _ in 0..5 {
            let (a, egress) = train.pop(&mut gen, &mut rng, &fib);
            assert_eq!(egress, fib.lookup(a.dst));
            assert!(egress.is_some());
        }
        for lc in 0..4 {
            fib.remove(Ipv4Prefix::new(
                Ipv4Addr::from_octets(10, lc as u8, 0, 0),
                16,
            ));
        }
        for _ in 0..(LOOKUP_TRAIN - 5) {
            let (_, egress) = train.pop(&mut gen, &mut rng, &fib);
            assert_eq!(egress, None);
        }
        // And a route announced mid-train is picked up too.
        fib.insert(Ipv4Prefix::new(Ipv4Addr(0), 0), 3);
        let (_, egress) = train.pop(&mut gen, &mut rng, &fib);
        assert_eq!(egress, Some(3));
    }
}
