//! The EIB control lines: a CSMA/CD channel model.
//!
//! The paper (§4) assigns the control lines three jobs: arbitrating
//! access to the data lines (REQ_D / REP_D / REL_D), carrying lookup
//! traffic for failed LFEs (REQ_L / REP_L — replies ride in control
//! packets because they are smaller than the data-line setup would
//! cost), and disseminating fault/protocol information (the processing
//! tier's parameters). The simulator times those packets, not their
//! fields: every control packet is `CsmaChannel::PACKET_BYTES` on
//! the wire.

use rand::Rng;
use std::collections::HashSet;

/// Result of attempting to transmit on the CSMA/CD control lines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TxResult {
    /// Transmission started; call [`CsmaChannel::complete`] with this
    /// token at `done_at` to learn whether it survived.
    Started {
        /// Token identifying this transmission.
        tx: u64,
        /// Absolute time the transmission finishes.
        done_at: f64,
    },
    /// Carrier sensed busy: retry when the channel frees.
    Deferred {
        /// Earliest time the channel may be free.
        until: f64,
    },
    /// Collision: both this attempt and the in-progress transmission
    /// are garbled; back off (see [`CsmaChannel::backoff_delay`]).
    Collided {
        /// End of the jam signal.
        jam_until: f64,
    },
}

/// A CSMA/CD bus at packet granularity.
///
/// Semantics: a station that senses the channel idle transmits; if a
/// second station starts within the propagation window `prop_delay_s`
/// (before the first station's signal reaches it), both transmissions
/// collide and are garbled. Completion is checked with
/// [`CsmaChannel::complete`], mirroring how a real controller aborts on
/// collision detect.
#[derive(Debug)]
pub struct CsmaChannel {
    /// Time to clock one control packet onto the lines.
    packet_time_s: f64,
    /// Collision vulnerability window.
    prop_delay_s: f64,
    /// Backoff slot (classically ≈ 2 × propagation delay).
    slot_s: f64,
    busy_until: f64,
    current_start: f64,
    current_tx: Option<u64>,
    next_tx: u64,
    garbled: HashSet<u64>,
    collisions: u64,
}

impl CsmaChannel {
    /// Wire size of a control packet in bytes (fixed format: the three
    /// tiers fit comfortably in one small frame).
    pub(crate) const PACKET_BYTES: u32 = 32;

    /// A channel clocking `CsmaChannel::PACKET_BYTES` at `rate_bps`
    /// with the given propagation delay.
    pub fn new(rate_bps: f64, prop_delay_s: f64) -> Self {
        assert!(rate_bps > 0.0 && prop_delay_s >= 0.0);
        CsmaChannel {
            packet_time_s: Self::PACKET_BYTES as f64 * 8.0 / rate_bps,
            prop_delay_s,
            slot_s: (2.0 * prop_delay_s).max(1e-9),
            busy_until: 0.0,
            current_start: f64::NEG_INFINITY,
            current_tx: None,
            next_tx: 0,
            garbled: HashSet::new(),
            collisions: 0,
        }
    }

    /// Collisions observed so far.
    pub fn collisions(&self) -> u64 {
        self.collisions
    }

    /// Attempt to start transmitting at `now`.
    pub fn attempt(&mut self, now: f64) -> TxResult {
        if now < self.busy_until {
            if now < self.current_start + self.prop_delay_s {
                // The earlier transmission hasn't propagated to us yet:
                // we transmit into it — collision garbles both.
                if let Some(tx) = self.current_tx.take() {
                    self.garbled.insert(tx);
                }
                self.collisions += 1;
                // Both stations abort on collision detect; the channel
                // frees when the jam signal ends, not at the original
                // packet's end.
                let jam_until = now + self.slot_s;
                self.busy_until = jam_until;
                return TxResult::Collided { jam_until };
            }
            // Carrier sensed: defer (1-persistent CSMA retries at idle).
            return TxResult::Deferred {
                until: self.busy_until,
            };
        }
        let tx = self.next_tx;
        self.next_tx += 1;
        self.current_tx = Some(tx);
        self.current_start = now;
        self.busy_until = now + self.packet_time_s;
        TxResult::Started {
            tx,
            done_at: self.busy_until,
        }
    }

    /// Did transmission `tx` survive (no collision)? Consumes the token.
    pub fn complete(&mut self, tx: u64) -> bool {
        if self.garbled.remove(&tx) {
            return false;
        }
        if self.current_tx == Some(tx) {
            self.current_tx = None;
        }
        true
    }

    /// Binary-exponential backoff delay after the `attempt_no`-th
    /// collision (1-based), capped at 2¹⁰ slots per classic CSMA/CD.
    pub fn backoff_delay<R: Rng + ?Sized>(&self, rng: &mut R, attempt_no: u32) -> f64 {
        let exp = attempt_no.min(10);
        let max_slots = 1u64 << exp;
        let k = rng.gen_range(0..max_slots);
        k as f64 * self.slot_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn channel() -> CsmaChannel {
        // 1 Gbps control lines, 50 ns propagation.
        CsmaChannel::new(1e9, 50e-9)
    }

    #[test]
    fn idle_channel_transmits_successfully() {
        let mut ch = channel();
        match ch.attempt(1.0) {
            TxResult::Started { tx, done_at } => {
                // 32 bytes at 1 Gbps.
                assert!((done_at - (1.0 + 256e-9)).abs() < 1e-15);
                assert!(ch.complete(tx), "uncontended tx must succeed");
            }
            other => panic!("expected Started, got {other:?}"),
        }
        assert_eq!(ch.collisions(), 0);
    }

    #[test]
    fn carrier_sense_defers() {
        let mut ch = channel();
        let TxResult::Started { done_at, .. } = ch.attempt(0.0) else {
            panic!("first attempt must start");
        };
        // Second attempt after the propagation window but before the end.
        match ch.attempt(100e-9) {
            TxResult::Deferred { until } => assert_eq!(until, done_at),
            other => panic!("expected Deferred, got {other:?}"),
        }
        assert_eq!(ch.collisions(), 0);
    }

    #[test]
    fn near_simultaneous_attempts_collide() {
        let mut ch = channel();
        let TxResult::Started { tx, .. } = ch.attempt(0.0) else {
            panic!("first attempt must start");
        };
        // Within the 50 ns vulnerability window.
        match ch.attempt(20e-9) {
            TxResult::Collided { jam_until } => assert!(jam_until > 20e-9),
            other => panic!("expected Collided, got {other:?}"),
        }
        assert_eq!(ch.collisions(), 1);
        assert!(!ch.complete(tx), "the garbled transmission must fail");
    }

    #[test]
    fn channel_recovers_after_collision() {
        let mut ch = channel();
        ch.attempt(0.0);
        let TxResult::Collided { jam_until } = ch.attempt(10e-9) else {
            panic!("expected collision");
        };
        // After the jam clears, a retry succeeds.
        match ch.attempt(jam_until + 1e-9) {
            TxResult::Started { tx, .. } => assert!(ch.complete(tx)),
            other => panic!("expected Started, got {other:?}"),
        }
    }

    #[test]
    fn backoff_grows_with_attempts_and_stays_bounded() {
        let ch = channel();
        let mut rng = SmallRng::seed_from_u64(1);
        let max1: f64 = (0..200)
            .map(|_| ch.backoff_delay(&mut rng, 1))
            .fold(0.0, f64::max);
        let max6: f64 = (0..200)
            .map(|_| ch.backoff_delay(&mut rng, 6))
            .fold(0.0, f64::max);
        assert!(max6 > max1, "backoff range must widen");
        // Cap at 2^10 slots.
        let hard_cap = 1024.0 * 2.0 * 50e-9;
        for _ in 0..500 {
            assert!(ch.backoff_delay(&mut rng, 30) <= hard_cap);
        }
    }

    #[test]
    fn sequential_transmissions_share_the_channel() {
        let mut ch = channel();
        let TxResult::Started { tx: t1, done_at } = ch.attempt(0.0) else {
            panic!()
        };
        assert!(ch.complete(t1));
        let TxResult::Started { tx: t2, .. } = ch.attempt(done_at) else {
            panic!("channel must be free exactly at done_at")
        };
        assert!(ch.complete(t2));
    }
}
