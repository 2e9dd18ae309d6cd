//! Slot-level simulator of the EIB data lines, driven by the
//! distributed TDM arbiter of §4.
//!
//! The packet-level router model ([`crate::sim`]) approximates the
//! data lines as a fluid server per logical path at its promised rate.
//! This module is the *exact* mechanism — turn-by-turn round-robin
//! among established LPs, one bounded burst per turn — so the fluid
//! approximation can be checked: over any interval long compared to a
//! turn, the per-LP goodput of the slot-level machine converges to the
//! weighted share the fluid model assumes (see the `fluid_equivalence`
//! tests and the `eib_arbitration` bench).

use crate::eib::arbiter::TdmArbiter;
use std::collections::VecDeque;

/// A queued transfer unit (one packet's worth of bytes on the bus).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transfer {
    /// Opaque tag returned on completion (e.g. a packet id).
    pub tag: u64,
    /// Bytes to move.
    pub bytes: u32,
}

/// A completed transfer with its finish time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Completion {
    /// The LP (linecard index) whose queue it left.
    pub lp: usize,
    /// The transfer's tag.
    pub tag: u64,
    /// Absolute completion time (seconds).
    pub at: f64,
}

/// The slot-level data-line machine.
///
/// * A turn lets the holding LP transmit up to `max_turn_bytes`
///   (trailing packets are *not* split — the bus carries variable
///   length packets whole, one of the paper's stated advantages — so a
///   turn ends early rather than fragment).
/// * An LP with an empty queue passes its turn instantly.
/// * Establish/release drive the shared `TdmArbiter`, so ID
///   compaction and the newest-first reload order are exactly §4's.
#[derive(Debug)]
pub struct DataLines {
    arbiter: TdmArbiter,
    queues: Vec<VecDeque<Transfer>>,
    rate_bps: f64,
    max_turn_bytes: u32,
    /// Per-LP turn quantum override: "the bandwidth taken by an LC is
    /// proportional to its requirement posted … during its LP setup",
    /// realized as a proportional byte quantum per turn.
    weights: Vec<Option<u32>>,
    now: f64,
    /// Total bytes moved per LP (for share measurements).
    moved_bytes: Vec<u64>,
}

impl DataLines {
    /// A bus for `n_lcs` cards at `rate_bps`, with the given turn quantum.
    pub fn new(n_lcs: usize, rate_bps: f64, max_turn_bytes: u32) -> Self {
        assert!(rate_bps > 0.0 && max_turn_bytes > 0);
        DataLines {
            arbiter: TdmArbiter::new(n_lcs),
            queues: (0..n_lcs).map(|_| VecDeque::new()).collect(),
            rate_bps,
            max_turn_bytes,
            weights: vec![None; n_lcs],
            now: 0.0,
            moved_bytes: vec![0; n_lcs],
        }
    }

    /// Set (or clear) an LP's turn quantum, making its long-run share
    /// proportional to its posted requirement relative to the others'
    /// (only the weighted-share tests post one).
    #[cfg(test)]
    pub(crate) fn set_turn_quantum(&mut self, lp: usize, bytes: Option<u32>) {
        assert!(bytes.is_none_or(|b| b > 0), "quantum must be positive");
        self.weights[lp] = bytes;
    }

    /// Current simulation time of the bus.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Bytes moved so far for one LP.
    pub fn moved_bytes(&self, lp: usize) -> u64 {
        self.moved_bytes[lp]
    }

    /// Establish a logical path for `lp` (REQ_D/REP_D done elsewhere).
    pub fn establish(&mut self, lp: usize) -> u32 {
        self.arbiter.establish(lp)
    }

    /// Release `lp`'s logical path (REL_D). Its queued transfers are
    /// returned (the paper lets either side release mid-stream).
    pub fn release(&mut self, lp: usize) -> Vec<Transfer> {
        self.arbiter.release(lp);
        self.queues[lp].drain(..).collect()
    }

    /// Does `lp` currently hold a logical path?
    pub fn has_lp(&self, lp: usize) -> bool {
        self.arbiter.id_of(lp).is_some()
    }

    /// Queue a transfer on `lp`'s logical path.
    ///
    /// # Panics
    /// Panics if `lp` holds no logical path — enqueueing without an
    /// REQ_D/REP_D handshake is a protocol violation.
    pub fn enqueue(&mut self, lp: usize, transfer: Transfer) {
        assert!(self.has_lp(lp), "enqueue on LP {lp} without a logical path");
        self.queues[lp].push_back(transfer);
    }

    /// Any work pending anywhere?
    pub(crate) fn is_idle(&self) -> bool {
        self.queues.iter().all(|q| q.is_empty())
    }

    /// Run turns until `until` (absolute time), returning completions
    /// in order. Time only advances while bytes move; passing turns is
    /// free (the hardware signal `L_t` is instantaneous at this
    /// timescale).
    pub fn run_until(&mut self, until: f64) -> Vec<Completion> {
        assert!(until >= self.now);
        let mut done = Vec::new();
        // Guard: a full arbiter cycle with no transmissions means the
        // bus is idle; stop instead of spinning.
        while self.now < until {
            let Some(holder) = self.arbiter.whose_turn() else {
                break; // no LPs at all
            };
            let mut turn_budget = self.weights[holder].unwrap_or(self.max_turn_bytes);
            let mut transmitted = false;
            while let Some(&head) = self.queues[holder].front() {
                if head.bytes > turn_budget && transmitted {
                    break; // would fragment; yield the rest of the turn
                }
                let finish = self.now + head.bytes as f64 * 8.0 / self.rate_bps;
                if finish > until {
                    // The interval ends mid-packet: stop the clock at
                    // `until` without consuming the packet (slot-level
                    // callers advance in bus-scale steps, so this
                    // conservative cut keeps accounting simple).
                    self.now = until;
                    return done;
                }
                self.queues[holder].pop_front();
                self.now = finish;
                self.moved_bytes[holder] += head.bytes as u64;
                done.push(Completion {
                    lp: holder,
                    tag: head.tag,
                    at: finish,
                });
                transmitted = true;
                turn_budget = turn_budget.saturating_sub(head.bytes);
                if turn_budget == 0 {
                    break;
                }
            }
            self.arbiter.finish_turn();
            if !transmitted && self.is_idle() {
                break; // nothing anywhere; avoid spinning turns forever
            }
        }
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bus(n: usize) -> DataLines {
        // 40 Gbps, 9 KB turn quantum (~6 MTU packets).
        DataLines::new(n, 40e9, 9000)
    }

    #[test]
    fn single_lp_transfers_in_fifo_order() {
        let mut b = bus(4);
        b.establish(1);
        for tag in 0..5 {
            b.enqueue(1, Transfer { tag, bytes: 1500 });
        }
        let done = b.run_until(1.0);
        let tags: Vec<u64> = done.iter().map(|c| c.tag).collect();
        assert_eq!(tags, vec![0, 1, 2, 3, 4]);
        assert!(b.is_idle());
        // 5 x 1500B at 40 Gbps = 1.5 us.
        assert!((b.now() - 5.0 * 1500.0 * 8.0 / 40e9).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "without a logical path")]
    fn enqueue_without_lp_panics() {
        let mut b = bus(2);
        b.enqueue(0, Transfer { tag: 1, bytes: 100 });
    }

    #[test]
    fn equal_backlogs_get_equal_shares() {
        let mut b = bus(4);
        for lp in 0..4 {
            b.establish(lp);
            for tag in 0..200 {
                b.enqueue(lp, Transfer { tag, bytes: 1000 });
            }
        }
        // Run long enough for ~100 packets total.
        b.run_until(100.0 * 1000.0 * 8.0 / 40e9);
        let moved: Vec<u64> = (0..4).map(|lp| b.moved_bytes(lp)).collect();
        let min = *moved.iter().min().unwrap();
        let max = *moved.iter().max().unwrap();
        // Round robin equalizes to within one turn quantum (the horizon
        // can cut a cycle mid-way).
        assert!(
            max - min <= 9000,
            "unfair shares: {moved:?} (spread exceeds one turn quantum)"
        );
    }

    #[test]
    fn idle_lp_passes_its_turn_without_consuming_time() {
        let mut b = bus(3);
        b.establish(0);
        b.establish(1); // never enqueues
        for tag in 0..10 {
            b.enqueue(0, Transfer { tag, bytes: 1000 });
        }
        let done = b.run_until(1.0);
        assert_eq!(done.len(), 10);
        // Total time is exactly LP0's serialization time; LP1's empty
        // turns were free.
        assert!((b.now() - 10.0 * 1000.0 * 8.0 / 40e9).abs() < 1e-12);
    }

    #[test]
    fn release_returns_unsent_transfers_and_compacts() {
        let mut b = bus(3);
        b.establish(0);
        b.establish(1);
        b.enqueue(1, Transfer { tag: 9, bytes: 500 });
        let returned = b.release(1);
        assert_eq!(returned, vec![Transfer { tag: 9, bytes: 500 }]);
        assert!(!b.has_lp(1));
        assert!(b.has_lp(0));
        // Bus still serves LP0.
        b.enqueue(0, Transfer { tag: 1, bytes: 500 });
        assert_eq!(b.run_until(1.0).len(), 1);
    }

    #[test]
    fn run_until_respects_the_horizon() {
        let mut b = bus(2);
        b.establish(0);
        // One packet takes 0.3 us; horizon at 0.1 us completes nothing.
        b.enqueue(
            0,
            Transfer {
                tag: 1,
                bytes: 1500,
            },
        );
        let done = b.run_until(0.1e-6);
        assert!(done.is_empty());
        assert_eq!(b.now(), 0.1e-6);
        assert_eq!(b.queues[0].len(), 1);
        // Extending the horizon finishes it.
        let done = b.run_until(1.0e-6);
        assert_eq!(done.len(), 1);
    }

    #[test]
    fn turn_quantum_bounds_per_turn_burst() {
        // LP0 has a huge backlog of small packets, LP1 one packet:
        // LP1 must not wait for LP0's whole backlog, only one quantum.
        let mut b = DataLines::new(2, 40e9, 3000);
        b.establish(0); // id 1
        b.establish(1); // id 2 — newest goes first after reload
        for tag in 0..100 {
            b.enqueue(0, Transfer { tag, bytes: 1500 });
        }
        b.enqueue(
            1,
            Transfer {
                tag: 999,
                bytes: 1500,
            },
        );
        let done = b.run_until(1.0);
        let pos_lp1 = done.iter().position(|c| c.lp == 1).unwrap();
        assert!(
            pos_lp1 <= 2,
            "LP1 served at position {pos_lp1}; quantum (2 pkts) not enforced"
        );
    }

    /// The documented fluid-model equivalence: long-run goodput of the
    /// slot-level machine matches the equal-share fluid rate.
    #[test]
    fn fluid_equivalence_on_saturated_lps() {
        let rate = 40e9;
        let mut b = DataLines::new(5, rate, 9000);
        let k = 4; // four saturated LPs
        for lp in 0..k {
            b.establish(lp);
            for tag in 0..2_000 {
                b.enqueue(lp, Transfer { tag, bytes: 1200 });
            }
        }
        let horizon = 1e-3; // 1 ms — hundreds of turns per LP
        b.run_until(horizon);
        let fluid_share_bytes = rate / 8.0 * horizon / k as f64;
        for lp in 0..k {
            let got = b.moved_bytes(lp) as f64;
            assert!(
                (got / fluid_share_bytes - 1.0).abs() < 0.02,
                "LP{lp}: slot-level {got} vs fluid {fluid_share_bytes}"
            );
        }
    }

    #[test]
    fn weighted_quanta_give_proportional_shares() {
        // LP0 posted twice LP1's requirement: 2:1 byte quanta yield a
        // 2:1 long-run share.
        let mut b = DataLines::new(2, 40e9, 3000);
        b.establish(0);
        b.establish(1);
        b.set_turn_quantum(0, Some(6000));
        b.set_turn_quantum(1, Some(3000));
        for tag in 0..5_000 {
            b.enqueue(0, Transfer { tag, bytes: 1000 });
            b.enqueue(1, Transfer { tag, bytes: 1000 });
        }
        b.run_until(5e-4);
        let r = b.moved_bytes(0) as f64 / b.moved_bytes(1) as f64;
        assert!((r - 2.0).abs() < 0.15, "share ratio {r}, expected ~2");
    }

    #[test]
    fn clearing_a_quantum_restores_the_default() {
        let mut b = DataLines::new(2, 40e9, 3000);
        b.establish(0);
        b.set_turn_quantum(0, Some(1000));
        b.set_turn_quantum(0, None);
        b.enqueue(
            0,
            Transfer {
                tag: 1,
                bytes: 2500,
            },
        );
        // Default quantum (3000) admits the 2500B packet in one turn.
        assert_eq!(b.run_until(1.0).len(), 1);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        #[derive(Debug, Clone)]
        enum Op {
            Establish(usize),
            Release(usize),
            Enqueue(usize, u32),
            Run(f64),
        }

        fn op_strategy(n: usize) -> impl Strategy<Value = Op> {
            prop_oneof![
                (0..n).prop_map(Op::Establish),
                (0..n).prop_map(Op::Release),
                ((0..n), 40u32..1500).prop_map(|(lp, b)| Op::Enqueue(lp, b)),
                (1e-7..1e-5_f64).prop_map(Op::Run),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Under arbitrary op sequences: bytes are conserved
            /// (enqueued = completed + still queued + returned), per-LP
            /// completions stay FIFO, and time never runs backwards.
            #[test]
            fn random_schedules_preserve_invariants(
                ops in proptest::collection::vec(op_strategy(4), 1..120),
            ) {
                let mut bus = DataLines::new(4, 40e9, 6000);
                let mut enqueued = [0u64; 4];
                let mut returned = [0u64; 4];
                let mut completed = [0u64; 4];
                let mut next_tag = [0u64; 4];
                let mut expect_tag = [0u64; 4];
                let mut last_now = 0.0_f64;

                for op in ops {
                    match op {
                        Op::Establish(lp) => {
                            if !bus.has_lp(lp) {
                                bus.establish(lp);
                            }
                        }
                        Op::Release(lp) => {
                            if bus.has_lp(lp) {
                                for t in bus.release(lp) {
                                    returned[lp] += t.bytes as u64;
                                }
                                // FIFO restarts if it rejoins later.
                                expect_tag[lp] = next_tag[lp];
                            }
                        }
                        Op::Enqueue(lp, bytes) => {
                            if bus.has_lp(lp) {
                                bus.enqueue(lp, Transfer { tag: next_tag[lp], bytes });
                                next_tag[lp] += 1;
                                enqueued[lp] += bytes as u64;
                            }
                        }
                        Op::Run(dt) => {
                            for c in bus.run_until(bus.now() + dt) {
                                prop_assert_eq!(
                                    c.tag, expect_tag[c.lp],
                                    "LP {} completions out of FIFO order", c.lp
                                );
                                expect_tag[c.lp] += 1;
                                prop_assert!(c.at >= last_now);
                                completed[c.lp] += 0; // counted below via moved_bytes
                            }
                            prop_assert!(bus.now() >= last_now);
                            last_now = bus.now();
                        }
                    }
                }
                // Byte conservation per LP.
                for lp in 0..4 {
                    let queued: u64 = if bus.has_lp(lp) {
                        // Drain to measure.
                        bus.release(lp).iter().map(|t| t.bytes as u64).sum()
                    } else {
                        0
                    };
                    prop_assert_eq!(
                        enqueued[lp],
                        bus.moved_bytes(lp) + returned[lp] + queued,
                        "byte conservation broken at LP {}", lp
                    );
                    let _ = completed[lp];
                }
            }
        }
    }

    #[test]
    fn mixed_packet_sizes_still_share_by_bytes() {
        // One LP sends 1500B packets, another 300B packets; round
        // robin with a byte quantum equalizes *bytes*, not packets.
        let mut b = DataLines::new(2, 40e9, 3000);
        b.establish(0);
        b.establish(1);
        for tag in 0..1_000 {
            b.enqueue(0, Transfer { tag, bytes: 1500 });
            b.enqueue(1, Transfer { tag, bytes: 300 });
        }
        b.run_until(5e-5);
        let b0 = b.moved_bytes(0) as f64;
        let b1 = b.moved_bytes(1) as f64;
        assert!(
            (b0 / b1 - 1.0).abs() < 0.25,
            "byte shares diverged: {b0} vs {b1}"
        );
    }
}
