//! The flight recorder: a fixed-capacity ring of compact events.
//!
//! Every interesting hop in a packet's life (arrival, FIB lookup, VOQ
//! enqueue, iSLIP grant, fabric transit, EIB detour, reassembly,
//! deliver/drop) appends one 32-byte record stamped with DES sim-time.
//! The ring holds the last `capacity` events; when something goes
//! wrong — a panic, or the first anomalous drop — the window it holds
//! is exactly the evidence a post-mortem needs.

/// What happened. The `a`/`b` payload fields are kind-specific (see
/// the DESIGN.md event-schema table): typically `a` = linecard or
/// drop-cause index, `b` = bytes or cell count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// Packet arrived at an ingress linecard (`a` = lc, `b` = ip bytes).
    Arrival = 0,
    /// FIB resolved an egress (`a` = ingress lc, `b` = egress lc).
    FibLookup = 1,
    /// Packet's cells entered a VOQ (`a` = lc, `b` = cell count).
    VoqEnqueue = 2,
    /// iSLIP granted an input→output pair (`a` = src lc, `b` = dst lc).
    IslipGrant = 3,
    /// A cell crossed the fabric (`a` = src lc, `b` = dst lc).
    FabricTransit = 4,
    /// Packet detoured over the EIB (`a` = lc, `b` = ip bytes).
    EibDetour = 5,
    /// Egress SRU completed reassembly (`a` = lc, `b` = ip bytes).
    Reassembly = 6,
    /// Packet delivered (`a` = egress lc, `b` = ip bytes).
    Deliver = 7,
    /// Packet dropped (`a` = `DropCause` index, `b` = lc).
    Drop = 8,
    /// Network: packet entered a router (`a` = node, `b` = in port).
    NetTransit = 9,
    /// Network: packet forwarded out a link (`a` = node, `b` = out port).
    NetForward = 10,
    /// Network: packet delivered at its host (`a` = node, `b` = hops).
    NetDeliver = 11,
    /// Network: packet dropped (`a` = node, `b` = `NetDropCause` index).
    NetDrop = 12,
    /// Network: scripted fault/repair action (`a` = node, `b` = action
    /// index in the scenario script; not packet-scoped).
    NetAct = 13,
}

impl EventKind {
    /// Stable lowercase name used in dumps and exported JSON.
    pub(crate) fn name(self) -> &'static str {
        match self {
            EventKind::Arrival => "arrival",
            EventKind::FibLookup => "fib-lookup",
            EventKind::VoqEnqueue => "voq-enqueue",
            EventKind::IslipGrant => "islip-grant",
            EventKind::FabricTransit => "fabric-transit",
            EventKind::EibDetour => "eib-detour",
            EventKind::Reassembly => "reassembly",
            EventKind::Deliver => "deliver",
            EventKind::Drop => "drop",
            EventKind::NetTransit => "net-transit",
            EventKind::NetForward => "net-forward",
            EventKind::NetDeliver => "net-deliver",
            EventKind::NetDrop => "net-drop",
            EventKind::NetAct => "net-act",
        }
    }
}

/// One flight-recorder record. `t` is DES sim-time in seconds.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// Sim-time stamp (seconds).
    pub t: f64,
    /// What happened.
    pub kind: EventKind,
    /// Kind-specific payload (see [`EventKind`]).
    pub a: u32,
    /// Kind-specific payload (see [`EventKind`]).
    pub b: u32,
    /// The packet involved (0 when not packet-scoped).
    pub packet: u64,
}

/// Fixed-capacity overwrite-oldest ring of [`Event`]s.
///
/// The capacity is tracked explicitly (`Vec::with_capacity` may
/// over-allocate, and the wrap arithmetic needs the exact bound).
#[derive(Debug)]
pub struct Ring {
    buf: Vec<Event>,
    cap: usize,
    next: usize,
    appended: u64,
}

impl Ring {
    /// Ring holding the last `capacity` events (capacity ≥ 1).
    pub(crate) fn new(capacity: usize) -> Self {
        let cap = capacity.max(1);
        Ring {
            buf: Vec::with_capacity(cap),
            cap,
            next: 0,
            appended: 0,
        }
    }

    /// Append one event, overwriting the oldest once full.
    #[inline]
    pub(crate) fn push(&mut self, ev: Event) {
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.next] = ev;
        }
        self.next = (self.next + 1) % self.cap;
        self.appended += 1;
    }

    /// Total events ever appended (≥ `len`).
    pub(crate) fn appended(&self) -> u64 {
        self.appended
    }

    /// Events currently held.
    pub(crate) fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been recorded yet.
    pub(crate) fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Maximum events held.
    pub(crate) fn capacity(&self) -> usize {
        self.cap
    }

    /// The retained window, oldest first.
    pub(crate) fn recent(&self) -> impl Iterator<Item = &Event> {
        let split = if self.buf.len() < self.cap {
            0
        } else {
            self.next
        };
        self.buf[split..].iter().chain(self.buf[..split].iter())
    }

    /// Human-readable dump of the retained window, oldest first — the
    /// format printed on panic and by on-demand dumps.
    pub(crate) fn dump(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        writeln!(
            out,
            "flight recorder: {} of {} events retained (capacity {})",
            self.len(),
            self.appended(),
            self.capacity()
        )
        .expect("write to String");
        for ev in self.recent() {
            writeln!(
                out,
                "  t={:.9}s {:<14} packet={:#018x} a={} b={}",
                ev.t,
                ev.kind.name(),
                ev.packet,
                ev.a,
                ev.b
            )
            .expect("write to String");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: f64, packet: u64) -> Event {
        Event {
            t,
            kind: EventKind::Arrival,
            a: 1,
            b: 2,
            packet,
        }
    }

    #[test]
    fn ring_wraps_oldest_first() {
        let mut r = Ring::new(3);
        for i in 0..5u64 {
            r.push(ev(i as f64, i));
        }
        assert_eq!(r.appended(), 5);
        assert_eq!(r.len(), 3);
        let kept: Vec<u64> = r.recent().map(|e| e.packet).collect();
        assert_eq!(kept, vec![2, 3, 4]);
    }

    #[test]
    fn ring_partial_fill() {
        let mut r = Ring::new(8);
        r.push(ev(0.5, 7));
        let kept: Vec<u64> = r.recent().map(|e| e.packet).collect();
        assert_eq!(kept, vec![7]);
        assert!(r.dump().contains("arrival"));
    }
}
