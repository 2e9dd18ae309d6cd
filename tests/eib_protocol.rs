//! A readable walkthrough of the §4 EIB protocol, exercising the
//! CSMA/CD control channel and the slot-level data lines together —
//! the full life of two concurrent coverage streams, as the paper
//! narrates it.

use dra::core::eib::control::{CsmaChannel, TxResult};
use dra::core::eib::datalines::{DataLines, Transfer};

/// Helper: push one control packet through the (idle) channel.
fn send(ch: &mut CsmaChannel, at: f64) -> f64 {
    match ch.attempt(at) {
        TxResult::Started { tx, done_at } => {
            assert!(ch.complete(tx), "uncontended control tx must succeed");
            done_at
        }
        other => panic!("channel should be idle at {at}: {other:?}"),
    }
}

#[test]
fn forward_path_stream_lifecycle() {
    // Scenario: LC0's SRU failed; LC2 will cover. LC3's LFE failed and
    // outsources lookups. The control lines arbitrate everything.
    let mut control = CsmaChannel::new(1e9, 50e-9);
    let mut data = DataLines::new(4, 40e9, 9000);
    let mut t = 0.0;

    // --- LP setup for LC0's stream (forward path) ---------------------
    t = send(&mut control, t); // REQ_D: LC0 solicits a cover
    t = send(&mut control, t); // REP_D: LC2 accepts

    let id0 = data.establish(0);
    assert_eq!(id0, 1, "first LP takes ID 1");

    // --- A remote lookup interleaves on the control lines -------------
    t = send(&mut control, t); // REQ_L from LC3
    t = send(&mut control, t); // REP_L carrying the egress LC

    // --- A second data stream joins (LC1's PDLU covered by LC2) -------
    t = send(&mut control, t); // its REQ_D
    let id1 = data.establish(1);
    assert_eq!(id1, 2);

    // --- Data flows, round-robin shared -------------------------------
    for tag in 0..30 {
        data.enqueue(0, Transfer { tag, bytes: 1500 });
        data.enqueue(
            1,
            Transfer {
                tag: 100 + tag,
                bytes: 1500,
            },
        );
    }
    let completions = data.run_until(60.0 * 1500.0 * 8.0 / 40e9 + 1e-9);
    assert_eq!(completions.len(), 60, "both streams fully served");
    let lc0_bytes = data.moved_bytes(0);
    let lc1_bytes = data.moved_bytes(1);
    assert_eq!(lc0_bytes, lc1_bytes, "equal requests, equal turns");

    // --- Release: REL_D announces the ID; survivors compact -----------
    send(&mut control, t); // REL_D
    data.release(0);
    assert!(!data.has_lp(0));
    assert!(data.has_lp(1));

    // The bus keeps serving the survivor at full rate.
    data.enqueue(
        1,
        Transfer {
            tag: 999,
            bytes: 3000,
        },
    );
    let done = data.run_until(data.now() + 1e-5);
    assert_eq!(done.len(), 1);
    assert_eq!(control.collisions(), 0, "this walkthrough stayed orderly");
}

#[test]
fn collision_storm_resolves_with_backoff() {
    // Many REP_D candidates answering the same REQ_D can collide (the
    // paper handles this with CSMA/CD). Simulate five stations racing
    // and verify the channel eventually carries all five replies.
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    let mut ch = CsmaChannel::new(1e9, 50e-9);
    let mut rng = SmallRng::seed_from_u64(5);
    // Station state: (next attempt time, collision count, done?).
    let mut stations: Vec<(f64, u32, bool)> = (0..5).map(|i| (i as f64 * 1e-9, 0, false)).collect();
    let mut guard = 0;
    while stations.iter().any(|&(_, _, done)| !done) {
        guard += 1;
        assert!(guard < 10_000, "collision storm never resolved");
        // Earliest pending station attempts.
        let (idx, &(at, attempts, _)) = stations
            .iter()
            .enumerate()
            .filter(|(_, &(_, _, done))| !done)
            .min_by(|a, b| a.1 .0.partial_cmp(&b.1 .0).unwrap())
            .unwrap();
        match ch.attempt(at) {
            TxResult::Started { tx, done_at } => {
                if ch.complete(tx) {
                    stations[idx].2 = true;
                } else {
                    let backoff = ch.backoff_delay(&mut rng, attempts + 1);
                    stations[idx] = (done_at + backoff, attempts + 1, false);
                }
            }
            TxResult::Deferred { until } => {
                stations[idx].0 = until + 1e-10;
            }
            TxResult::Collided { jam_until } => {
                let backoff = ch.backoff_delay(&mut rng, attempts + 1);
                stations[idx] = (jam_until + backoff + 1e-10, attempts + 1, false);
            }
        }
    }
    assert!(ch.collisions() > 0, "the race should produce collisions");
}
