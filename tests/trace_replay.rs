//! Pinned-workload reproducibility: a synthetic trace serialized to
//! CSV and replayed drives downstream components (FIB, SAR) to
//! identical results — the workflow EXPERIMENTS.md prescribes for
//! archiving an experiment's exact input.

use dra::net::addr::Ipv4Addr;
use dra::net::fib::{Fib, LinearFib};
use dra::net::packet::{Packet, PacketId};
use dra::net::protocol::ProtocolKind;
use dra::net::sar::{cells_for, segment};
use dra::net::trace::{from_csv, to_csv};
use dra::net::traffic::synthesize_trace;

#[test]
fn archived_trace_reproduces_downstream_decisions() {
    let bases = [
        Ipv4Addr::from_octets(10, 1, 0, 0),
        Ipv4Addr::from_octets(10, 2, 0, 0),
        Ipv4Addr::from_octets(10, 3, 0, 0),
    ];
    let trace = synthesize_trace(2_000, 2e9, &bases, 0xA11CE);
    let archived = to_csv(&trace);
    let replayed = from_csv(&archived).expect("own output parses");
    assert_eq!(trace, replayed);

    // Route the replayed trace through a FIB and segment it; every
    // decision must match the original run.
    let mut fib = LinearFib::new();
    for lc in 1..=3u16 {
        fib.insert(format!("10.{lc}.0.0/16").parse().unwrap(), lc);
    }
    let mut lookups = 0u64;
    let mut total_cells = 0u64;
    for (orig, replay) in trace.iter().zip(&replayed) {
        let nh_a = fib.lookup(orig.dst);
        let nh_b = fib.lookup(replay.dst);
        assert_eq!(nh_a, nh_b);
        assert!(nh_a.is_some(), "all destinations are routed");
        lookups += 1;

        let p = Packet::new(
            PacketId(lookups),
            Ipv4Addr(0),
            replay.dst,
            replay.ip_bytes,
            ProtocolKind::Ethernet,
            0.0,
        );
        let cells = segment(&p, 0, nh_b.unwrap());
        assert_eq!(cells.len(), cells_for(p.ip_bytes) as usize);
        total_cells += cells.len() as u64;
    }
    assert_eq!(lookups, 2_000);
    assert!(total_cells >= lookups, "every packet yields >= 1 cell");
}

#[test]
fn distinct_seeds_give_distinct_archives() {
    let bases = [Ipv4Addr::from_octets(10, 1, 0, 0)];
    let a = to_csv(&synthesize_trace(100, 1e9, &bases, 1));
    let b = to_csv(&synthesize_trace(100, 1e9, &bases, 2));
    assert_ne!(a, b);
    // Same seed: identical text.
    let a2 = to_csv(&synthesize_trace(100, 1e9, &bases, 1));
    assert_eq!(a, a2);
}
