//! Deterministic 1-in-N packet lifecycle sampling.
//!
//! Whether a packet is sampled is a pure function of its id: one
//! [`splitmix64`] step (the workspace's one copy of the mixer;
//! `dra-campaign`'s seed derivation and the rare-event clone seeds use
//! it too — constants pinned by test) hashed against the sampling
//! modulus. No RNG stream is consumed and no event is
//! scheduled, so enabling sampling cannot perturb a simulation —
//! that is the determinism contract behind "`results/faceoff.json`
//! stays byte-identical with telemetry on".
//!
//! Sampled packets get a `Track` recording the sim-time at each
//! lifecycle boundary; on delivery the track resolves into a latency
//! decomposition (lookup / VOQ wait / switching / EIB / reassembly)
//! fed to the registry's histograms and, optionally, the Chrome trace
//! buffer.

use std::collections::HashMap;

/// One SplitMix64 output step (constants pinned by `sampler_constants`).
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Avalanche hash of a packet id used for sampling decisions.
#[inline]
pub fn sample_hash(packet: u64) -> u64 {
    let mut s = packet;
    splitmix64(&mut s)
}

/// Is `packet` in the 1-in-`every` sample? (`every = 0` disables.)
#[inline]
pub fn is_sampled(packet: u64, every: u64) -> bool {
    every != 0 && sample_hash(packet).is_multiple_of(every)
}

/// Sim-time marks over one sampled packet's life. Fields start NaN and
/// are filled as the packet moves; the decomposition only uses marks
/// that were actually set (an EIB-only DRA packet never gets fabric
/// marks, and vice versa).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Track {
    /// Ingress linecard (for trace pid/tid assignment).
    pub ingress: u32,
    /// Arrival time.
    pub arrived: f64,
    /// Ingress processing + FIB lookup finished.
    pub lookup_done: f64,
    /// Cells entered the VOQ.
    pub voq_enqueued: f64,
    /// First cell granted across the fabric.
    pub switch_start: f64,
    /// Last cell so far across the fabric.
    pub switch_end: f64,
    /// Accumulated EIB occupancy (seconds), summed over hops.
    pub eib: f64,
    /// When the packet's first EIB hop began (trace span anchor).
    pub eib_start: f64,
}

impl Track {
    fn new(ingress: u32, now: f64) -> Self {
        Track {
            ingress,
            arrived: now,
            lookup_done: f64::NAN,
            voq_enqueued: f64::NAN,
            switch_start: f64::NAN,
            switch_end: f64::NAN,
            eib: 0.0,
            eib_start: f64::NAN,
        }
    }
}

/// The five phases a delivered packet's latency decomposes into, plus
/// the end-to-end total. Index = histogram id in the registry.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Decomposition {
    /// Ingress processing + FIB lookup.
    pub lookup: f64,
    /// Waiting in the VOQ for the first grant.
    pub voq_wait: f64,
    /// First to last cell across the crossbar.
    pub switching: f64,
    /// Total EIB occupancy.
    pub eib: f64,
    /// Last cell to delivery (egress SRU + egress processing).
    pub reassembly: f64,
    /// Arrival to delivery.
    pub total: f64,
}

/// Per-worker tracker of in-flight sampled packets.
#[derive(Debug, Default)]
pub(crate) struct Tracker {
    map: HashMap<u64, Track>,
    sampled: u64,
}

impl Tracker {
    /// Start tracking a sampled packet at its arrival.
    pub(crate) fn begin(&mut self, packet: u64, ingress: u32, now: f64) {
        self.sampled += 1;
        self.map.insert(packet, Track::new(ingress, now));
    }

    /// Mutable access to a tracked packet (None when not sampled).
    #[inline]
    pub(crate) fn get_mut(&mut self, packet: u64) -> Option<&mut Track> {
        self.map.get_mut(&packet)
    }

    /// Resolve a delivered packet into its latency decomposition.
    ///
    /// Unset marks contribute zero to their phase, so partial paths
    /// (EIB-only detours, single-cell packets) still decompose; the
    /// five components plus residual always sum to `total`.
    pub(crate) fn finish(&mut self, packet: u64, now: f64) -> Option<(Track, Decomposition)> {
        let track = self.map.remove(&packet)?;
        let span = |a: f64, b: f64| {
            if a.is_finite() && b.is_finite() && b > a {
                b - a
            } else {
                0.0
            }
        };
        let decomp = Decomposition {
            lookup: span(track.arrived, track.lookup_done),
            voq_wait: span(track.voq_enqueued, track.switch_start),
            switching: span(track.switch_start, track.switch_end),
            eib: track.eib,
            reassembly: span(track.switch_end, now),
            total: span(track.arrived, now),
        };
        Some((track, decomp))
    }

    /// Stop tracking a dropped packet.
    pub(crate) fn drop_packet(&mut self, packet: u64) {
        self.map.remove(&packet);
    }

    /// Sampled packets seen so far (including in-flight and dropped).
    pub(crate) fn sampled(&self) -> u64 {
        self.sampled
    }

    /// Packets still being tracked.
    pub(crate) fn open(&self) -> usize {
        self.map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The mixer must stay bit-identical to `dra_campaign::seed`'s
    /// SplitMix64 — these values are pinned against that
    /// implementation.
    #[test]
    fn sampler_constants() {
        assert_eq!(sample_hash(0), 0xe220a8397b1dcdaf);
        assert_eq!(sample_hash(0xDEAD_BEEF), 0x4adfb90f68c9eb9b);
        // A realistic packet id: linecard 3's generator, sequence 12345.
        assert_eq!(sample_hash((3 << 48) | 12345), 0xa26ce1d02144332c);
    }

    #[test]
    fn sampling_rate_is_roughly_one_in_n() {
        let every = 64u64;
        let hits = (0..100_000u64).filter(|&p| is_sampled(p, every)).count();
        // Binomial(100k, 1/64): expect ~1562, allow ±25%.
        assert!((1170..=1950).contains(&hits), "hits={hits}");
        assert!(!is_sampled(1, 0), "every=0 must disable sampling");
    }

    #[test]
    fn decomposition_sums_to_total() {
        let mut tr = Tracker::default();
        tr.begin(42, 1, 1.0);
        let t = tr.get_mut(42).unwrap();
        t.lookup_done = 1.1;
        t.voq_enqueued = 1.1;
        t.switch_start = 1.3;
        t.switch_end = 1.5;
        t.eib = 0.0;
        let (_, d) = tr.finish(42, 1.6).unwrap();
        assert!((d.lookup - 0.1).abs() < 1e-12);
        assert!((d.voq_wait - 0.2).abs() < 1e-12);
        assert!((d.switching - 0.2).abs() < 1e-12);
        assert!((d.reassembly - 0.1).abs() < 1e-12);
        assert!((d.total - 0.6).abs() < 1e-12);
        assert_eq!(tr.open(), 0);
    }

    #[test]
    fn partial_paths_do_not_poison() {
        // EIB-only DRA packet: no fabric marks at all.
        let mut tr = Tracker::default();
        tr.begin(7, 0, 2.0);
        tr.get_mut(7).unwrap().eib = 0.25;
        let (_, d) = tr.finish(7, 3.0).unwrap();
        assert_eq!(d.voq_wait, 0.0);
        assert_eq!(d.switching, 0.0);
        assert_eq!(d.eib, 0.25);
        assert_eq!(d.total, 1.0);
        // Dropped packets just vanish.
        tr.begin(8, 0, 2.0);
        tr.drop_packet(8);
        assert!(tr.finish(8, 9.9).is_none());
    }
}
