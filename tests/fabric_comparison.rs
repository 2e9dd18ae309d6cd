//! iSLIP crossbar vs the idealized output-queued reference — the
//! classic switching results, verified on this implementation:
//! both sustain full throughput under uniform saturation, and the
//! VOQ structure avoids the head-of-line collapse a single-FIFO
//! input-queued switch would suffer.

use dra::net::packet::PacketId;
use dra::net::sar::Cell;
use dra::router::fabric::Crossbar;
use output_queued::OutputQueuedFabric;

#[path = "support/output_queued.rs"]
mod output_queued;

fn cell(src: u16, dst: u16, id: u64) -> Cell {
    Cell {
        src_lc: src,
        dst_lc: dst,
        packet: PacketId(id),
        seq: 0,
        total: 1,
        payload_bytes: 48,
    }
}

/// Deterministic uniform workload: every input sends `per_pair` cells
/// to every output.
fn load_uniform(n: u16, per_pair: u64) -> Vec<Cell> {
    let mut v = Vec::new();
    for i in 0..n {
        for o in 0..n {
            for k in 0..per_pair {
                v.push(cell(i, o, ((i as u64) << 40) | ((o as u64) << 20) | k));
            }
        }
    }
    v
}

#[test]
fn islip_matches_oq_throughput_under_uniform_saturation() {
    let n = 8u16;
    let cells = load_uniform(n, 64);
    let total = cells.len();

    let mut xb = Crossbar::new(n as usize, 1 << 16, 2, 1, 1);
    for c in cells.clone() {
        xb.enqueue(c).unwrap();
    }
    let mut oq = OutputQueuedFabric::new(n as usize, 1 << 16);
    for c in cells {
        oq.enqueue(c).unwrap();
    }

    let mut islip_slots = 0;
    let mut moved = Vec::new();
    while !xb.is_empty() {
        xb.schedule_slot(&mut moved);
        islip_slots += 1;
        assert!(islip_slots < 10 * total, "iSLIP failed to drain");
    }
    let mut oq_slots = 0;
    while !oq.is_empty() {
        oq.schedule_slot();
        oq_slots += 1;
    }
    // OQ drains in exactly total/n slots; desynchronized iSLIP should
    // be within ~15% of that optimum on uniform traffic.
    let optimum = total / n as usize;
    assert_eq!(oq_slots, optimum);
    assert!(
        islip_slots <= optimum * 115 / 100,
        "iSLIP used {islip_slots} slots vs OQ optimum {optimum}"
    );
}

#[test]
fn contended_input_stays_fully_utilized_and_fair() {
    // Input 0 has traffic for the hot output 1 (contended with input
    // 1) and the idle output 2. The input line moves one cell per
    // slot; iSLIP must keep it fully utilized and split its service
    // fairly between the two outputs — no starvation of either (a
    // single-FIFO input queue would stall entirely whenever its head
    // loses the race for output 1).
    let mut xb = Crossbar::new(3, 1 << 10, 2, 1, 1);
    for k in 0..50 {
        xb.enqueue(cell(0, 1, k)).unwrap(); // contends with input 1
        xb.enqueue(cell(1, 1, 100 + k)).unwrap();
        xb.enqueue(cell(0, 2, 200 + k)).unwrap(); // uncontended
    }
    let mut from0_to1 = 0;
    let mut from0_to2 = 0;
    let slots = 60;
    let mut moved = Vec::new();
    for _ in 0..slots {
        moved.clear();
        xb.schedule_slot(&mut moved);
        for c in &moved {
            if c.src_lc == 0 {
                match c.dst_lc {
                    1 => from0_to1 += 1,
                    2 => from0_to2 += 1,
                    _ => unreachable!(),
                }
            }
        }
    }
    let served = from0_to1 + from0_to2;
    assert!(
        served >= slots * 95 / 100,
        "input 0 should stay ~fully utilized: {served}/{slots}"
    );
    // Fair split between its two destinations until one queue drains.
    assert!(
        from0_to2 >= 25 && from0_to1 >= 25,
        "service split starved a destination: to1={from0_to1} to2={from0_to2}"
    );
}

#[test]
fn oq_queue_depth_exceeds_voq_under_hotspot() {
    // Everyone blasts output 0: the OQ fabric concentrates the backlog
    // in one queue (needing deep egress buffers), while the crossbar
    // spreads it across the input VOQs — the buffering trade-off that
    // motivates VOQ designs.
    let n = 4u16;
    let mut xb = Crossbar::new(n as usize, 1 << 12, 2, 1, 1);
    let mut oq = OutputQueuedFabric::new(n as usize, 1 << 12);
    for i in 0..n {
        for k in 0..100 {
            xb.enqueue(cell(i, 0, (i as u64) << 20 | k)).unwrap();
            oq.enqueue(cell(i, 0, (i as u64) << 20 | k)).unwrap();
        }
    }
    let mut moved = Vec::new();
    for _ in 0..50 {
        xb.schedule_slot(&mut moved);
        oq.schedule_slot();
    }
    let max_voq = (0..n as usize).map(|i| xb.voq_len(i, 0)).max().unwrap();
    assert!(
        oq.queue_len(0) > max_voq,
        "hotspot backlog should concentrate in the OQ: oq={} voq_max={max_voq}",
        oq.queue_len(0)
    );
    // Both serve the hotspot at the same rate: one cell per slot.
    assert_eq!(oq.queued_cells(), xb.queued_cells());
}

// ---- the output-queued reference itself ------------------------------

#[test]
fn oq_every_output_drains_each_slot() {
    let mut oq = OutputQueuedFabric::new(4, 64);
    // Three inputs all target output 0; one targets output 1.
    oq.enqueue(cell(0, 0, 1)).unwrap();
    oq.enqueue(cell(1, 0, 2)).unwrap();
    oq.enqueue(cell(2, 0, 3)).unwrap();
    oq.enqueue(cell(3, 1, 4)).unwrap();
    let s1_len = oq.schedule_slot().len();
    // One from output 0 plus one from output 1.
    assert_eq!(s1_len, 2);
    assert_eq!(oq.queued_cells(), 2);
    assert_eq!(oq.queue_len(0), 2);
}

#[test]
fn oq_has_no_head_of_line_blocking() {
    // Permutation traffic: with one cell per distinct output, a
    // single slot clears everything (the crossbar would too here;
    // the difference shows under conflicting bursts, see bench).
    let mut oq = OutputQueuedFabric::new(8, 64);
    for i in 0..8u16 {
        oq.enqueue(cell(i, (i + 3) % 8, i as u64)).unwrap();
    }
    assert_eq!(oq.schedule_slot().len(), 8);
    assert!(oq.is_empty());
}

#[test]
fn oq_overflow_returns_cell() {
    let mut oq = OutputQueuedFabric::new(2, 1);
    oq.enqueue(cell(0, 1, 1)).unwrap();
    assert!(oq.enqueue(cell(1, 1, 2)).is_err());
    assert_eq!(oq.queued_cells(), 1);
}

#[test]
fn oq_fifo_per_output() {
    let mut oq = OutputQueuedFabric::new(2, 16);
    for k in 0..4 {
        oq.enqueue(cell(0, 1, k)).unwrap();
    }
    let mut seen = Vec::new();
    while !oq.is_empty() {
        for c in oq.schedule_slot() {
            seen.push(c.packet.0);
        }
    }
    assert_eq!(seen, vec![0, 1, 2, 3]);
}
