//! The network engine: one [`NetworkSim`] run to its horizon on one
//! calendar queue.
//!
//! Everything a packet touches at one hop belongs to one router: its
//! [`NodeHealth`](dra_core::health::NodeHealth), FIB, EIB coverage
//! budget, and the *outgoing* directions of its links. The only
//! interaction between routers is a `Forward` → link →
//! `Transit`-at-peer handoff, which the link model charges at least
//! that link's propagation latency.
//!
//! ## Arrivals
//!
//! The only RNG draws are flow inter-arrival times, and an arrival's
//! time depends only on previous draws — never on packet forwarding.
//! `precompute_arrivals_into` replays the draw order of a serial
//! `FlowNext` event chain on the seeded RNG, turning the whole arrival
//! timeline into data before the run starts (into buffers pooled
//! across replications). The kernel keeps its arrivals sorted by key
//! and holds exactly one of them, the next, in its queue; popping it
//! pushes the following one. Staging is O(1) per arrival and keeps the
//! queue bounded by the in-flight population, not the horizon.
//!
//! ## One total event order
//!
//! Every event carries a key `router << 40 | n`: the router that
//! emitted it and that router's emission count. Scripted actions and
//! arrivals take keys at setup (actions first, in scenario order, then
//! arrivals, in injection order, at their target router); every other
//! event takes the next key of the router whose event scheduled it.
//! The kernel pops the events tied at one `f64` time as a batch and
//! processes them in `(provenance chain, key)` order, so events run in
//! the total order
//!
//! > `(time, provenance chain, source router, per-router emission seq)`.
//!
//! The provenance chain is what makes exact time ties meaningful. They
//! are *structural*, not measure-zero: the EIB coverage budget is a
//! fluid queue (`finish = covered_busy.max(now) + c`), so under backlog
//! the completion times it hands out chain off `covered_busy` in fixed
//! increments, and the link model serializes `busy_until` the same
//! way. Because both are *stateful*, the order of tied events changes
//! which packet gets which delay. A chain lists the pop times of the
//! events processed on a packet's behalf, most recent first; comparing
//! chains reproduces the scheduling order of a serial DES kernel
//! exactly (an event follows its scheduler, so tied events compare as
//! their schedulers' pop times, recursively). The `#[cfg(test)]`
//! serial oracle pins that. Two chains are equal only when they end at
//! two roots (injections, scripted actions) with equal times; the key
//! orders those.
//!
//! ## Provenance arena
//!
//! Each packet carries its chain as one `u32` handle into the kernel's
//! [`ChainArena`] of `(pop_time, parent)` nodes, extended by one node
//! per event popped on its behalf — no heap allocation per hop. Arena
//! memory stays bounded by epoch compaction between same-time batches:
//! once the arena crosses its threshold, the paths reachable from
//! pending events are copied into a fresh epoch and their handles
//! rewritten in place ([`CalendarQueue::for_each_item_mut`]).
//!
//! ## Ledger
//!
//! Deliveries feed the latency/hops Welford moments in processing
//! order, which is the total order. `in_flight` is *counted*, not
//! derived: the packets in events still queued at the horizon. A
//! packet lost or double-counted anywhere breaks
//! [`NetStats::conserved`], and the run freezes the flight recorder
//! when it does.

use crate::chain::{ChainArena, NIL};
use crate::link::LinkOffer;
use crate::net::{hop, CompiledNetAction, Flow, HopOutcome, NetPacket, NetworkSim};
use crate::stats::{NetDropCause, NetStats};
use dra_core::scenario::Action;
use dra_des::calendar::CalendarQueue;
use dra_des::random::exponential;
use dra_telemetry::EngineProfile;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::cell::RefCell;
use std::time::Instant;

/// One precomputed packet injection.
#[derive(Debug, Clone, Copy)]
struct Arrival {
    at: f64,
    flow: u32,
    id: u64,
}

/// Per-flow precompute scratch: (next fire time, insertion order, alive).
type FlowPending = Vec<(f64, u64, bool)>;

thread_local! {
    /// Arrival-precompute workspace, pooled per worker thread so
    /// campaign replications reuse the buffers instead of
    /// reallocating the whole arrival timeline per cell × rep.
    static PRECOMPUTE_POOL: RefCell<(Vec<Arrival>, FlowPending)> =
        const { RefCell::new((Vec::new(), Vec::new())) };
}

/// Replay a serial `FlowNext` chain's draw order into `out`.
///
/// A serial run draws one inter-arrival per flow at `t = 0` (in flow
/// order), then one more at each `FlowNext` pop — unless it fires at
/// or past `stop_s` (no draw, flow ends) or lands beyond `horizon`
/// (never pops). `FlowNext` pops follow (time, sequence) order, which
/// restricted to arrivals is "earliest pending time, insertion order
/// on ties" — reproduced here with a scan (flow counts are small).
/// Same RNG, same draw sequence, bit-identical timestamps and packet
/// ids. `pending` is caller-owned scratch.
fn precompute_arrivals_into(
    flows: &[Flow],
    stop_s: f64,
    horizon: f64,
    seed: u64,
    out: &mut Vec<Arrival>,
    pending: &mut FlowPending,
) {
    out.clear();
    pending.clear();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut order = 0u64;
    for f in flows {
        let dt = exponential(&mut rng, f.rate_pps);
        pending.push((dt, order, true));
        order += 1;
    }
    let mut id = 0u64;
    loop {
        let mut best: Option<usize> = None;
        for (i, &(t, o, alive)) in pending.iter().enumerate() {
            if alive && best.is_none_or(|b| (t, o) < (pending[b].0, pending[b].1)) {
                best = Some(i);
            }
        }
        let Some(i) = best else { break };
        let t = pending[i].0;
        if t > horizon {
            break; // the minimum is already past the horizon
        }
        if t >= stop_s {
            pending[i].2 = false; // injection window closed, no draw
            continue;
        }
        let dt = exponential(&mut rng, flows[i].rate_pps);
        pending[i] = (t + dt, order, true);
        order += 1;
        out.push(Arrival {
            at: t,
            flow: i as u32,
            id,
        });
        id += 1;
    }
}

/// Bits of an event key below the emitting router's id.
const KEY_SHIFT: u32 = 40;

/// A fault action localized to one router. A cable cut splits into one
/// `Link` action per direction; each direction's state is only ever
/// read by its owning router, so the split is unobservable.
#[derive(Debug, Clone)]
enum LocalAct {
    Router(Action),
    Link { port: u16, up: bool },
}

/// The event alphabet of the kernel. `node` is the router the event
/// happens at; `chain` is a handle into the kernel's [`ChainArena`].
#[derive(Debug, Clone)]
enum Event {
    /// A staged arrival entering its source router's host port.
    Inject {
        pkt: NetPacket,
        node: u32,
        in_port: u16,
    },
    Transit {
        pkt: NetPacket,
        node: u32,
        in_port: u16,
        chain: u32,
    },
    Forward {
        pkt: NetPacket,
        node: u32,
        out_port: u16,
        chain: u32,
    },
    Deliver {
        pkt: NetPacket,
        node: u32,
        chain: u32,
    },
    /// Scripted action `idx` (scenario index), localized to `node`.
    Act { node: u32, idx: u32, act: LocalAct },
}

// The hot-path variants stay within 40 bytes (24-byte packet + router
// + port + chain handle + discriminant).
const _: () = assert!(std::mem::size_of::<Event>() <= 40);

impl Event {
    /// The event's provenance chain (arrivals and scripted actions are
    /// roots: empty).
    fn chain(&self) -> u32 {
        match self {
            Event::Transit { chain, .. }
            | Event::Forward { chain, .. }
            | Event::Deliver { chain, .. } => *chain,
            Event::Inject { .. } | Event::Act { .. } => NIL,
        }
    }

    /// Mutable handle access for arena-compaction relocation.
    fn chain_mut(&mut self) -> Option<&mut u32> {
        match self {
            Event::Transit { chain, .. }
            | Event::Forward { chain, .. }
            | Event::Deliver { chain, .. } => Some(chain),
            Event::Inject { .. } | Event::Act { .. } => None,
        }
    }
}

/// The run's packet accounting.
#[derive(Debug)]
struct Ledger {
    /// Injections, deliveries (counters and Welford streams) and
    /// drops. `in_flight` stays 0 until [`Ledger::settle`] counts it.
    stats: NetStats,
    /// Packets in events still queued when the run ended.
    pending: u64,
}

impl Ledger {
    fn new(n_flows: usize) -> Ledger {
        Ledger {
            stats: NetStats::new(n_flows),
            pending: 0,
        }
    }

    /// Close the books: `in_flight` is what is still pending. A ledger
    /// that lost or double-counted a packet fails
    /// [`NetStats::conserved`], which freezes the flight-recorder
    /// window (first violation wins; the frozen window becomes the
    /// telemetry document's `anomaly`).
    fn settle(self) -> NetStats {
        let mut stats = self.stats;
        stats.in_flight = self.pending;
        if !stats.conserved() {
            dra_telemetry::anomaly("net: conservation ledger violation");
        }
        stats
    }
}

/// One network run: the network plus a private calendar queue and
/// provenance arena.
struct Kernel {
    net: NetworkSim,
    /// Per-router emission counts: the low bits of every key.
    emitted: Vec<u64>,
    queue: CalendarQueue<Event>,
    /// Arrivals `(time, key, packet)` sorted by `(time, key)`; the key
    /// names the source router. `staged[next_staged - 1]` is the one
    /// in the queue.
    staged: Vec<(f64, u64, NetPacket)>,
    next_staged: usize,
    arena: ChainArena,
    /// Same-time batch staging, reused across pops.
    batch: Vec<(u64, Event)>,
    ledger: Ledger,
    /// Events processed.
    events: u64,
}

impl Kernel {
    /// The next key of `node` (see the module docs).
    #[inline]
    fn key(&mut self, node: u32) -> u64 {
        let n = &mut self.emitted[node as usize];
        assert!(*n < 1 << KEY_SHIFT, "router {node} ran out of event keys");
        let key = (node as u64) << KEY_SHIFT | *n;
        *n += 1;
        key
    }

    /// Push `event`, emitted by `node`, at `time`.
    #[inline]
    fn push(&mut self, time: f64, node: u32, event: Event) {
        let key = self.key(node);
        self.queue.push(time, key, event);
    }

    /// Move the next staged arrival into the queue.
    fn stage_next(&mut self) {
        if let Some(&(at, key, pkt)) = self.staged.get(self.next_staged) {
            self.next_staged += 1;
            let node = (key >> KEY_SHIFT) as u32;
            let in_port = self.net.topo.host_port(node);
            self.queue
                .push(at, key, Event::Inject { pkt, node, in_port });
        }
    }

    /// Terminate a packet dropped at `node`.
    fn drop_at(&mut self, packet: u64, node: u32, cause: NetDropCause) {
        dra_telemetry::event(
            dra_telemetry::EventKind::NetDrop,
            packet,
            node,
            cause.index() as u32,
        );
        self.ledger.stats.drops[cause.index()] += 1;
    }

    /// One router transit: health checks, FIB lookup, coverage charge;
    /// schedules `Deliver` or `Forward`, or drops.
    fn transit(&mut self, now: f64, mut pkt: NetPacket, node: u32, in_port: u16, chain: u32) {
        dra_telemetry::event(
            dra_telemetry::EventKind::NetTransit,
            pkt.id,
            node,
            in_port as u32,
        );
        let i = node as usize;
        let net = &mut self.net;
        let outcome = hop(
            node,
            &mut net.nodes[i],
            &net.forwarding.fibs()[i],
            &mut net.covered_busy[i],
            &net.cfg,
            now,
            &mut pkt,
            in_port,
        );
        if let Some(t) = net.tele.as_deref_mut() {
            let node_transit_s = net.cfg.node_transit_s;
            t.col
                .transit_outcome(&mut t.nodes[i], now, node, &pkt, &outcome, node_transit_s);
        }
        match outcome {
            HopOutcome::Drop(cause) => self.drop_at(pkt.id, node, cause),
            HopOutcome::Deliver { delay_s } => {
                let chain = self.arena.extend(chain, now);
                self.push(now + delay_s, node, Event::Deliver { pkt, node, chain });
            }
            HopOutcome::Forward { delay_s, out_port } => {
                let chain = self.arena.extend(chain, now);
                self.push(
                    now + delay_s,
                    node,
                    Event::Forward {
                        pkt,
                        node,
                        out_port,
                        chain,
                    },
                );
            }
        }
    }

    /// Offer a packet to `node`'s link at `out_port`; hand it to the
    /// peer or drop it.
    fn forward(&mut self, now: f64, pkt: NetPacket, node: u32, out_port: u16, chain: u32) {
        let net = &mut self.net;
        let offer =
            net.links
                .at_mut(node, out_port)
                .offer(&net.cfg.link, now, net.cfg.packet_bytes);
        if let Some(t) = net.tele.as_deref_mut() {
            t.col.forward_outcome(
                &mut t.nodes[node as usize],
                now,
                node,
                out_port,
                &pkt,
                &offer,
            );
        }
        let delay_s = match offer {
            LinkOffer::Down => return self.drop_at(pkt.id, node, NetDropCause::LinkDown),
            LinkOffer::Congested => return self.drop_at(pkt.id, node, NetDropCause::LinkCongested),
            LinkOffer::Sent { delay_s } => delay_s,
        };
        dra_telemetry::event(
            dra_telemetry::EventKind::NetForward,
            pkt.id,
            node,
            out_port as u32,
        );
        let peer = net.topo.adj[node as usize][out_port as usize];
        let in_port = net.topo.rev_port[node as usize][out_port as usize];
        // The peer's Transit descends from this pop.
        let chain = self.arena.extend(chain, now);
        self.push(
            now + delay_s,
            node,
            Event::Transit {
                pkt,
                node: peer,
                in_port,
                chain,
            },
        );
    }

    /// A packet reaches its destination's host port at `node`.
    fn deliver(&mut self, now: f64, pkt: NetPacket, node: u32, chain: u32) {
        dra_telemetry::event(
            dra_telemetry::EventKind::NetDeliver,
            pkt.id,
            node,
            pkt.hops as u32,
        );
        if let Some(t) = self.net.tele.as_deref_mut() {
            t.col
                .delivered(&mut t.nodes[node as usize], now, node, &pkt);
            if t.col.is_sampled(pkt.id) {
                // Kept for the span-vs-provenance cross-check.
                let mut times = Vec::new();
                self.arena.serialize_into(chain, &mut times);
                t.sampled_chains.push((pkt.id, times));
            }
        }
        let s = &mut self.ledger.stats;
        s.delivered += 1;
        s.flow_delivered[pkt.flow as usize] += 1;
        s.latency.push(now - pkt.injected_at);
        s.hops.push(pkt.hops as f64);
    }

    /// Process one event popped at `now`.
    fn handle(&mut self, now: f64, event: Event) {
        self.events += 1;
        match event {
            Event::Inject { pkt, node, in_port } => {
                self.ledger.stats.injected += 1;
                self.ledger.stats.flow_injected[pkt.flow as usize] += 1;
                self.transit(now, pkt, node, in_port, NIL);
            }
            Event::Transit {
                pkt,
                node,
                in_port,
                chain,
            } => self.transit(now, pkt, node, in_port, chain),
            Event::Forward {
                pkt,
                node,
                out_port,
                chain,
            } => self.forward(now, pkt, node, out_port, chain),
            Event::Deliver { pkt, node, chain } => self.deliver(now, pkt, node, chain),
            Event::Act { node, idx, act } => {
                dra_telemetry::event(dra_telemetry::EventKind::NetAct, 0, node, idx);
                match act {
                    LocalAct::Router(action) => {
                        let router = &mut self.net.nodes[node as usize];
                        router.advance_to(now);
                        router.apply(&action);
                    }
                    LocalAct::Link { port, up } => self.net.links.at_mut(node, port).set_up(up),
                }
            }
        }
    }

    /// Compact the provenance arena: every live chain is reachable
    /// from a pending queue event.
    fn compact(&mut self) {
        self.arena.begin_compact();
        let arena = &mut self.arena;
        self.queue.for_each_item_mut(|ev| {
            if let Some(h) = ev.chain_mut() {
                *h = arena.relocate(*h);
            }
        });
        self.arena.finish_compact();
    }

    /// Process every event up to and including `horizon`.
    fn advance(&mut self, horizon: f64) {
        let mut batch = std::mem::take(&mut self.batch);
        while let Some((now, key, event)) = self.queue.pop_at_or_before(horizon) {
            // Drain every event tied at `now` and order the batch
            // before any of them touches router, budget or link state.
            // Processing only ever schedules strictly later events
            // (every hop and link delay is positive), so the batch is
            // closed once drained. A popped arrival stages the next
            // one before the drain goes on, so an arrival tied at
            // `now` joins the batch.
            batch.clear();
            let mut popped = Some((key, event));
            while let Some((k, e)) = popped {
                if matches!(e, Event::Inject { .. }) {
                    self.stage_next();
                }
                batch.push((k, e));
                popped = self.queue.pop_at_or_before(now).map(|(t, k, e)| {
                    debug_assert_eq!(t, now, "queue returned an event before the popped minimum");
                    (k, e)
                });
            }
            if batch.len() > 1 {
                // Keys are unique, so the order is total and the
                // unstable sort (no scratch allocation) deterministic.
                let arena = &self.arena;
                batch.sort_unstable_by(|a, b| {
                    arena.cmp(a.1.chain(), b.1.chain()).then(a.0.cmp(&b.0))
                });
            }
            for (_, event) in batch.drain(..) {
                self.handle(now, event);
            }
            if self.arena.should_compact() {
                self.compact();
            }
        }
        self.batch = batch;
    }
}

/// Run `net` to `horizon` (see the module docs).
///
/// # Panics
/// Panics on a negative or non-finite horizon.
pub(crate) fn run(net: NetworkSim, seed: u64, horizon: f64) -> NetworkSim {
    assert!(
        horizon.is_finite() && horizon >= 0.0,
        "network run: bad horizon {horizon}"
    );
    let n_flows = net.flows.len();
    let (mut arrivals, mut pending) = PRECOMPUTE_POOL.with(|p| {
        let mut pool = p.borrow_mut();
        (std::mem::take(&mut pool.0), std::mem::take(&mut pool.1))
    });
    precompute_arrivals_into(
        &net.flows,
        net.cfg.traffic_stop_s,
        horizon,
        seed,
        &mut arrivals,
        &mut pending,
    );
    let mut k = Kernel {
        emitted: vec![0; net.topo.n_nodes()],
        queue: CalendarQueue::new(),
        staged: Vec::with_capacity(arrivals.len()),
        next_staged: 0,
        arena: ChainArena::new(),
        batch: Vec::new(),
        ledger: Ledger::new(n_flows),
        events: 0,
        net,
    };

    // Keys at setup: scripted actions in scenario order, then arrivals
    // in injection order, each at its target router.
    let scenario = std::mem::take(&mut k.net.scenario);
    let compiled = std::mem::take(&mut k.net.compiled);
    for (idx, ((at, _), act)) in scenario.iter().zip(&compiled).enumerate() {
        let idx = idx as u32;
        let mut push = |node: u32, act: LocalAct| k.push(*at, node, Event::Act { node, idx, act });
        match act {
            CompiledNetAction::Router { node, action } => {
                push(*node, LocalAct::Router(action.clone()))
            }
            CompiledNetAction::Cable { a, pa, b, pb, up } => {
                push(*a, LocalAct::Link { port: *pa, up: *up });
                push(*b, LocalAct::Link { port: *pb, up: *up });
            }
        }
    }
    k.net.scenario = scenario;
    k.net.compiled = compiled;
    let hop_budget = k.net.forwarding.hop_budget();
    for a in &arrivals {
        let f = k.net.flows[a.flow as usize];
        let key = k.key(f.src);
        let pkt = NetPacket {
            id: a.id,
            injected_at: a.at,
            flow: a.flow,
            dst: f.dst as u16,
            ttl: hop_budget,
            hops: 0,
        };
        k.staged.push((a.at, key, pkt));
    }
    PRECOMPUTE_POOL.with(|p| {
        let mut pool = p.borrow_mut();
        pool.0 = std::mem::take(&mut arrivals);
        pool.1 = std::mem::take(&mut pending);
    });
    // Arrivals come in time order; the sort breaks exact time ties by
    // key, the order the queue pops them in.
    k.staged
        .sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    k.stage_next();

    // With a collector installed, time the run (identical simulation
    // result) into the non-deterministic `profile` section.
    let start = Instant::now();
    k.advance(horizon);
    let wall_ns = start.elapsed().as_nanos() as u64;
    let events = k.events;
    if let Some(t) = k.net.tele.as_deref_mut() {
        t.profile = Some(EngineProfile {
            runs: 1,
            wall_ns,
            events,
        });
    }

    let Kernel {
        mut net,
        mut queue,
        mut ledger,
        ..
    } = k;
    queue.for_each_item_mut(|e| {
        if matches!(
            e,
            Event::Transit { .. } | Event::Forward { .. } | Event::Deliver { .. }
        ) {
            ledger.pending += 1;
        }
    });
    net.stats = ledger.settle();
    net.events = events;
    net
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::build_network;
    use crate::link::LinkConfig;
    use crate::net::{NetAction, NetConfig, NetScenario};
    use crate::oracle::run_serial;
    use crate::spec::{FlowSpec, TopoCellSpec, TopoFaultSpec};
    use crate::topology::{Topology, TopologyKind};
    use dra_campaign::seed::{derive_seed, Stream};
    use dra_core::health::ArchKind;
    use dra_des::stats::Welford;

    fn precompute_arrivals(flows: &[Flow], stop_s: f64, horizon: f64, seed: u64) -> Vec<Arrival> {
        let mut out = Vec::new();
        let mut pending = Vec::new();
        precompute_arrivals_into(flows, stop_s, horizon, seed, &mut out, &mut pending);
        out
    }

    #[test]
    fn arrival_precompute_matches_serial_draws() {
        // The precompute's own invariants: times ordered, ids dense in
        // time order, stop/horizon respected.
        let flows = vec![
            Flow {
                src: 0,
                dst: 1,
                rate_pps: 50_000.0,
            },
            Flow {
                src: 1,
                dst: 0,
                rate_pps: 20_000.0,
            },
        ];
        let arr = precompute_arrivals(&flows, 8e-3, 10e-3, 42);
        assert!(!arr.is_empty());
        for w in arr.windows(2) {
            assert!(w[0].at <= w[1].at, "arrivals out of time order");
            assert_eq!(w[1].id, w[0].id + 1, "ids dense in injection order");
        }
        assert!(arr.iter().all(|a| a.at < 8e-3), "stop time respected");
        // Same seed, same stream — and buffer reuse changes nothing.
        let mut again = Vec::with_capacity(1024);
        let mut pending = Vec::with_capacity(8);
        precompute_arrivals_into(&flows, 8e-3, 10e-3, 42, &mut again, &mut pending);
        assert_eq!(arr.len(), again.len());
        assert!(arr
            .iter()
            .zip(&again)
            .all(|(x, y)| x.at == y.at && x.flow == y.flow && x.id == y.id));
    }

    fn assert_welford_identical(a: &Welford, b: &Welford, what: &str, ctx: &str) {
        assert_eq!(a.count(), b.count(), "{ctx}: {what} count");
        for (x, y, field) in [
            (a.mean(), b.mean(), "mean"),
            (a.variance(), b.variance(), "variance"),
            (a.min(), b.min(), "min"),
            (a.max(), b.max(), "max"),
        ] {
            assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: {what} {field} {x} vs {y}");
        }
    }

    /// Every `NetStats` field, Welford bits included.
    fn assert_stats_identical(a: &NetStats, b: &NetStats, ctx: &str) {
        assert_eq!(a.injected, b.injected, "{ctx}: injected");
        assert_eq!(a.delivered, b.delivered, "{ctx}: delivered");
        assert_eq!(a.in_flight, b.in_flight, "{ctx}: in_flight");
        assert_eq!(a.drops, b.drops, "{ctx}: drops");
        assert_eq!(a.flow_injected, b.flow_injected, "{ctx}: flow_injected");
        assert_eq!(a.flow_delivered, b.flow_delivered, "{ctx}: flow_delivered");
        assert_welford_identical(&a.latency, &b.latency, "latency", ctx);
        assert_welford_identical(&a.hops, &b.hops, "hops", ctx);
        assert!(a.conserved(), "{ctx}: conservation (left)");
        assert!(b.conserved(), "{ctx}: conservation (right)");
    }

    /// The fault surfaces the grid cases cover.
    #[derive(Debug, Clone, Copy)]
    enum Faults {
        None,
        Routers,
        Links,
        Renewal,
        CutThenRepair,
    }

    const TOPOLOGIES: [TopologyKind; 2] = [
        TopologyKind::Mesh2D { rows: 4, cols: 4 },
        TopologyKind::FatTree { k: 4 },
    ];
    const ARCHS: [ArchKind; 2] = [ArchKind::Bdr, ArchKind::Dra];
    const FAULTS: [Faults; 5] = [
        Faults::None,
        Faults::Routers,
        Faults::Links,
        Faults::Renewal,
        Faults::CutThenRepair,
    ];
    const HORIZON: f64 = 10e-3;

    /// Case `i` of {mesh, fat-tree} × {BDR, DRA} × the five surfaces,
    /// built through the sweep's own construction path.
    fn case(i: usize) -> (NetworkSim, String) {
        let topology = TOPOLOGIES[i / 10];
        let arch = ARCHS[i / 5 % 2];
        let faults = FAULTS[i % 5];
        let spec = match faults {
            Faults::None | Faults::CutThenRepair => TopoFaultSpec::None,
            Faults::Routers => TopoFaultSpec::FailRouters { k: 2, at_s: 2e-3 },
            Faults::Links => TopoFaultSpec::FailLinks { k: 3, at_s: 2e-3 },
            // ~100 compressed fault-hours with hot-swap repair: the
            // routers' private timelines under lazy advance.
            Faults::Renewal => TopoFaultSpec::Renewal {
                delay_scale: 1e-4,
                repair_h: 10.0,
            },
        };
        let cell = TopoCellSpec {
            id: "grid".into(),
            arch,
            topology,
            link: LinkConfig::default(),
            flows: FlowSpec {
                n_flows: 8,
                rate_pps: 20_000.0,
                packet_bytes: 700,
            },
            faults: spec,
            horizon_s: HORIZON,
            drain_s: 2.5e-3,
            replications: 1,
            seed_group: 0,
        };
        let mut net = build_network(&cell, 0xD8A_70B0, 0);
        if let Faults::CutThenRepair = faults {
            // The repaired directions must come back with a clean
            // backlog (the `set_up` contract).
            let b = net.topo.adj[0][0];
            net.set_scenario(
                &NetScenario::new()
                    .at(2e-3, NetAction::FailLink { a: 0, b })
                    .at(5e-3, NetAction::RepairLink { a: 0, b }),
            );
        }
        (net, format!("{arch:?}/{}/{faults:?}", topology.label()))
    }

    /// A 4×4 mesh with one slow WAN-ish edge, one extra-fast edge and a
    /// mid-run cut of the fast one.
    fn heterogeneous_latencies() -> NetworkSim {
        let topo = Topology::build(TopologyKind::Mesh2D { rows: 4, cols: 4 });
        let cfg = NetConfig {
            traffic_stop_s: 7.5e-3,
            ..NetConfig::default()
        };
        let flow = |src, dst, rate_pps| Flow { src, dst, rate_pps };
        let flows = vec![
            flow(0, 15, 40_000.0),
            flow(12, 3, 40_000.0),
            flow(5, 10, 20_000.0),
        ];
        let mut net = NetworkSim::new(topo, ArchKind::Dra, cfg, flows);
        net.set_link_latency(5, 6, 80e-6);
        net.set_link_latency(9, 10, 2e-6);
        net.set_scenario(&NetScenario::new().at(3e-3, NetAction::FailLink { a: 9, b: 10 }));
        net
    }

    /// A DRA cell on `topology` with 4 failed routers and real traffic
    /// volume.
    fn loaded(topology: TopologyKind) -> NetworkSim {
        let cell = TopoCellSpec {
            id: "loaded".into(),
            arch: ArchKind::Dra,
            topology,
            link: LinkConfig::default(),
            flows: FlowSpec {
                n_flows: 24,
                rate_pps: 40_000.0,
                packet_bytes: 700,
            },
            faults: TopoFaultSpec::FailRouters { k: 4, at_s: 2e-3 },
            horizon_s: 8e-3,
            drain_s: 2e-3,
            replications: 1,
            seed_group: 3,
        };
        build_network(&cell, 0xD8A_70B0, 0)
    }

    /// Inputs beyond the grid, as `(label, network, seed, horizon)`:
    /// per-link latencies (traffic across the slow edge lands long
    /// after the fast one's), 64 routers, a Barabási–Albert graph whose
    /// hubs pile up coverage ties, and both replications of a committed
    /// resilience cell, loaded enough that deliveries tie at different
    /// routers, so the tie order decides the Welford bits.
    fn extra(i: usize) -> (String, NetworkSim, u64, f64) {
        match i {
            0 => (
                "heterogeneous latencies".into(),
                heterogeneous_latencies(),
                11,
                HORIZON,
            ),
            1 => (
                "mesh-8x8".into(),
                loaded(TopologyKind::Mesh2D { rows: 8, cols: 8 }),
                42,
                8e-3,
            ),
            2 => (
                "ba-128".into(),
                loaded(TopologyKind::BarabasiAlbert {
                    n: 128,
                    m: 2,
                    seed: 11,
                }),
                42,
                8e-3,
            ),
            _ => {
                let rep = (i - 3) as u32;
                let spec = crate::registry::resilience(false);
                let cell = spec
                    .cells
                    .iter()
                    .find(|c| c.id == "bdr/fat-tree-k4/healthy")
                    .expect("committed resilience cell");
                let seed = derive_seed(
                    spec.master_seed,
                    cell.seed_group,
                    rep as u64,
                    Stream::Simulation,
                );
                (
                    format!("resilience {} rep {rep}", cell.id),
                    build_network(cell, spec.master_seed, rep),
                    seed,
                    cell.horizon_s,
                )
            }
        }
    }

    #[test]
    fn serial_oracle_matches_one_group() {
        for i in 0..TOPOLOGIES.len() * ARCHS.len() * FAULTS.len() {
            let (net, ctx) = case(i);
            let oracle = run_serial(case(i).0, 42, HORIZON);
            assert!(oracle.injected > 0, "{ctx}: degenerate case");
            assert_stats_identical(&oracle, &run(net, 42, HORIZON).stats, &ctx);
        }
        for i in 0..5 {
            let (ctx, net, seed, horizon) = extra(i);
            let oracle = run_serial(extra(i).1, seed, horizon);
            assert!(oracle.delivered > 100, "{ctx}: want real traffic");
            assert_stats_identical(&oracle, &run(net, seed, horizon).stats, &ctx);
        }
    }

    #[test]
    fn in_flight_is_counted_not_derived() {
        // A horizon inside the traffic window leaves packets pending:
        // the kernel counts them from its queue, the oracle by
        // injections minus terminations.
        let (net, _) = case(1);
        let stats = run(net, 42, 3e-3).stats;
        assert!(stats.in_flight > 0, "no packet pending at the horizon");
        assert_stats_identical(&stats, &run_serial(case(1).0, 42, 3e-3), "cut");
    }

    #[test]
    fn a_miscounted_ledger_fails_conservation() {
        let ledger = |injected, drops, pending| {
            let mut l = Ledger::new(1);
            l.stats.injected = injected;
            l.stats.flow_injected[0] = injected;
            l.stats.drops[NetDropCause::LinkDown.index()] = drops;
            l.pending = pending;
            l
        };
        // 4 injected: 1 dropped, 3 still queued.
        let settled = ledger(4, 1, 3).settle();
        assert!(settled.conserved());
        assert_eq!(settled.in_flight, 3);
        // A packet lost (neither terminated nor queued).
        assert!(!ledger(4, 1, 2).settle().conserved());
        // A packet counted twice (dropped and still queued).
        assert!(!ledger(4, 2, 3).settle().conserved());
    }
}
