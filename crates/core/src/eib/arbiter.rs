//! The distributed round-robin TDM arbiter for the EIB data lines
//! (§4, Figure 4).
//!
//! Mechanism as described by the paper:
//!
//! * `Ctr_β` (here `beta`) counts the logical paths (LPs) currently
//!   sharing the data lines; every LC tracks it, incremented on each
//!   LP establishment and decremented on release.
//! * Each LC_init is assigned a unique ID in LP-establishment order
//!   (`Ctr_id`): the first LP gets ID 1, the next ID 2, …
//! * `Ctr_r` is a countdown replicated at every LC; an LC transmits
//!   when `Ctr_r` equals its ID. Finishing a turn lowers the shared
//!   line `L_t`, decrementing every copy of `Ctr_r` simultaneously;
//!   when `Ctr_r` reaches zero the line `L_p` is raised and every LC
//!   reloads `Ctr_r` with `β` — so "the most recently added requesting
//!   LC has its first turn" and turns proceed in descending-ID order.
//! * Releasing an LP (REL_D carrying `id_o`) decrements `β` and every
//!   ID larger than `id_o`, keeping IDs contiguous in `1..=β`.
//!
//! Because every copy of `Ctr_r` moves in lockstep, the arbiter is
//! modelled with one shared countdown plus per-LC IDs; the lockstep
//! property itself is the invariant the hardware lines guarantee.

/// Distributed TDM arbiter state for the EIB data lines.
#[derive(Debug, Clone)]
pub(crate) struct TdmArbiter {
    /// `ids[lc]` is `Some(Ctr_id)` while that LC holds a logical path.
    ids: Vec<Option<u32>>,
    /// Number of active logical paths (`Ctr_β`).
    beta: u32,
    /// The replicated countdown (`Ctr_r`); zero means "no active LP".
    ctr_r: u32,
}

impl TdmArbiter {
    /// An arbiter for a router with `n_lcs` linecards, no LPs active.
    pub(crate) fn new(n_lcs: usize) -> Self {
        TdmArbiter {
            ids: vec![None; n_lcs],
            beta: 0,
            ctr_r: 0,
        }
    }

    /// The assigned ID (`Ctr_id`) of a linecard's LP, if it has one.
    pub(crate) fn id_of(&self, lc: usize) -> Option<u32> {
        self.ids[lc]
    }

    /// Establish a logical path for `lc`. Returns the assigned ID.
    ///
    /// # Panics
    /// Panics if `lc` already holds an LP — the protocol requires a
    /// release first (an LC has a single REQ_D outstanding at a time).
    pub(crate) fn establish(&mut self, lc: usize) -> u32 {
        assert!(self.ids[lc].is_none(), "LC {lc} already holds an LP");
        self.beta += 1;
        let id = self.beta;
        self.ids[lc] = Some(id);
        if self.beta == 1 {
            // First LP: start the countdown at β so it gets the turn.
            self.ctr_r = 1;
        }
        // A newcomer joins mid-cycle without disturbing the countdown;
        // its first turn comes when the cycle reloads to the new β.
        id
    }

    /// Release `lc`'s logical path (REL_D with `id_o`): IDs above it
    /// compact down and `β` shrinks.
    ///
    /// # Panics
    /// Panics if `lc` holds no LP.
    pub(crate) fn release(&mut self, lc: usize) {
        let id_o = self.ids[lc].take().expect("release without an LP");
        self.beta -= 1;
        for id in self.ids.iter_mut().flatten() {
            if *id > id_o {
                *id -= 1;
            }
        }
        // The countdown may now point past the compacted range.
        if self.ctr_r > self.beta {
            self.ctr_r = self.beta;
        }
    }

    /// Whose turn is it to use the data lines?
    ///
    /// Returns `None` when no LP is active.
    pub(crate) fn whose_turn(&self) -> Option<usize> {
        if self.beta == 0 {
            return None;
        }
        self.ids.iter().position(|&id| id == Some(self.ctr_r))
    }

    /// The current holder finished transmitting (lowers `L_t`):
    /// advance the countdown; on reaching zero, `L_p` reloads it to β.
    pub(crate) fn finish_turn(&mut self) {
        if self.beta == 0 {
            return;
        }
        self.ctr_r -= 1;
        if self.ctr_r == 0 {
            self.ctr_r = self.beta;
        }
    }

    /// Check the arbiter's structural invariants (the tests' oracle):
    /// IDs are exactly `1..=β` with no duplicates, and the countdown is
    /// within range.
    #[cfg(test)]
    pub(crate) fn invariants_hold(&self) -> bool {
        let mut ids: Vec<u32> = self.ids.iter().flatten().copied().collect();
        ids.sort_unstable();
        let expect: Vec<u32> = (1..=self.beta).collect();
        ids == expect && (self.beta == 0) == (self.ctr_r == 0) && self.ctr_r <= self.beta
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_arbiter_has_no_turn() {
        let a = TdmArbiter::new(4);
        assert_eq!(a.whose_turn(), None);
        assert_eq!(a.beta, 0);
        assert!(a.invariants_hold());
    }

    #[test]
    fn single_lp_always_gets_the_turn() {
        let mut a = TdmArbiter::new(4);
        let id = a.establish(2);
        assert_eq!(id, 1);
        assert_eq!(a.whose_turn(), Some(2));
        a.finish_turn();
        assert_eq!(a.whose_turn(), Some(2), "sole LP repeats");
        assert!(a.invariants_hold());
    }

    #[test]
    fn ids_assigned_in_establishment_order() {
        let mut a = TdmArbiter::new(4);
        assert_eq!(a.establish(3), 1);
        assert_eq!(a.establish(0), 2);
        assert_eq!(a.establish(1), 3);
        assert_eq!(a.id_of(3), Some(1));
        assert_eq!(a.id_of(0), Some(2));
        assert_eq!(a.id_of(1), Some(3));
        assert_eq!(a.id_of(2), None);
        assert!(a.invariants_hold());
    }

    #[test]
    fn round_robin_descending_id_order() {
        // Paper: after a reload "the most recently added requesting LC
        // has its first turn" — turns go β, β−1, …, 1, then reload.
        let mut a = TdmArbiter::new(4);
        a.establish(0); // id 1
        a.establish(1); // id 2
        a.establish(2); // id 3
                        // Countdown started at 1 when LP-1 was alone; finish that turn
                        // so the cycle reloads to the full β.
        assert_eq!(a.whose_turn(), Some(0));
        a.finish_turn();
        let mut turns = Vec::new();
        for _ in 0..6 {
            turns.push(a.whose_turn().unwrap());
            a.finish_turn();
        }
        assert_eq!(turns, vec![2, 1, 0, 2, 1, 0], "descending ids, cyclic");
        assert!(a.invariants_hold());
    }

    #[test]
    fn every_lp_gets_equal_turns() {
        let mut a = TdmArbiter::new(5);
        for lc in 0..5 {
            a.establish(lc);
        }
        let mut counts = [0u32; 5];
        for _ in 0..100 {
            counts[a.whose_turn().unwrap()] += 1;
            a.finish_turn();
        }
        // 100 turns over 5 LPs = 20 each.
        assert!(counts.iter().all(|&c| c == 20), "unfair: {counts:?}");
    }

    #[test]
    fn release_compacts_ids() {
        let mut a = TdmArbiter::new(4);
        a.establish(0); // id 1
        a.establish(1); // id 2
        a.establish(2); // id 3
        a.release(1); // id 2 leaves
        assert_eq!(a.beta, 2);
        assert_eq!(a.id_of(0), Some(1));
        assert_eq!(a.id_of(2), Some(2), "id 3 compacts to 2");
        assert!(a.invariants_hold());
        // Rotation continues over the survivors only.
        let mut seen = std::collections::HashSet::new();
        for _ in 0..4 {
            seen.insert(a.whose_turn().unwrap());
            a.finish_turn();
        }
        assert_eq!(seen, [0usize, 2].into_iter().collect());
    }

    #[test]
    fn release_during_high_countdown_clamps() {
        let mut a = TdmArbiter::new(3);
        a.establish(0);
        a.establish(1);
        a.establish(2);
        a.finish_turn(); // cycle into the full range
                         // Countdown is now 3 (reloaded); release the holder of id 3.
        let holder = a.whose_turn().unwrap();
        a.release(holder);
        assert!(a.invariants_hold());
        assert!(a.whose_turn().is_some(), "turn must remain valid");
    }

    #[test]
    fn release_last_lp_goes_idle() {
        let mut a = TdmArbiter::new(2);
        a.establish(1);
        a.release(1);
        assert_eq!(a.beta, 0);
        assert_eq!(a.whose_turn(), None);
        a.finish_turn(); // no-op when idle
        assert!(a.invariants_hold());
    }

    #[test]
    #[should_panic(expected = "already holds")]
    fn double_establish_panics() {
        let mut a = TdmArbiter::new(2);
        a.establish(0);
        a.establish(0);
    }

    #[test]
    #[should_panic(expected = "without an LP")]
    fn release_without_lp_panics() {
        let mut a = TdmArbiter::new(2);
        a.release(0);
    }

    #[test]
    fn rejoin_after_release_gets_fresh_id() {
        let mut a = TdmArbiter::new(3);
        a.establish(0); // id 1
        a.establish(1); // id 2
        a.release(0);
        let id = a.establish(0);
        assert_eq!(id, 2, "ids stay contiguous");
        assert!(a.invariants_hold());
    }

    #[test]
    fn long_random_schedule_preserves_invariants() {
        // Deterministic pseudo-random establish/release/turn churn.
        let mut a = TdmArbiter::new(8);
        let mut s = 0x5EEDu64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for _ in 0..10_000 {
            let lc = (next() % 8) as usize;
            match next() % 3 {
                0 => {
                    if a.id_of(lc).is_none() {
                        a.establish(lc);
                    }
                }
                1 => {
                    if a.id_of(lc).is_some() {
                        a.release(lc);
                    }
                }
                _ => a.finish_turn(),
            }
            assert!(a.invariants_hold(), "invariants broken: {a:?}");
            if a.beta > 0 {
                assert!(a.whose_turn().is_some(), "active arbiter lost its turn");
            }
        }
    }
}
