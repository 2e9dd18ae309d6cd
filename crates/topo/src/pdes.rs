//! The network engine: one [`NetworkSim`] run as contiguous router
//! groups, each a logical process on the conservative windowed
//! executor of [`dra_des::pdes`].
//!
//! ## Decomposition
//!
//! Everything a packet touches at one hop belongs to one router: its
//! [`NodeHealth`], FIB, EIB coverage budget, and the *outgoing*
//! directions of its links. A group owns the mutable part of that
//! state for a contiguous router-id range and borrows the range's FIBs
//! from the network's shared, read-only forwarding state. The only
//! interaction between routers is a `Forward` → link →
//! `Transit`-at-peer handoff. When the peer is in the same group, the
//! handoff is a local `Transit`; otherwise it is a cross message,
//! merged at the next window barrier. The link
//! model charges at least that link's propagation latency on every
//! handoff, so the conservative lookahead is the **minimum latency
//! over every attached link** ([`LinkArena::min_latency`]); messages
//! over slower links are simply delivered early (always safe — see
//! the safety note in `dra_des::pdes`). Each window starts at the
//! network's next pending time and spans one full lookahead.
//!
//! [`NetworkSim::run`] splits the network into
//! `effective_threads(sim_threads, n_nodes)` equal groups. With one
//! group there are no cross messages to wait for, so the whole run is
//! one window to the horizon: `sim_threads = 1` is the one-group case
//! of the same engine, not a second one.
//!
//! ## Arrivals
//!
//! The only RNG draws are flow inter-arrival times, and an arrival's
//! time depends only on previous draws — never on packet forwarding.
//! `precompute_arrivals_into` replays the draw order of a serial
//! `FlowNext` event chain on the seeded RNG, turning the whole arrival
//! timeline into data before any group starts (into buffers pooled
//! across replications). Each group keeps its arrivals sorted by key
//! and holds exactly one of them, its next, in its queue; popping it
//! pushes the following one. Staging is O(1) per arrival and keeps the
//! queue bounded by the in-flight population, not the horizon.
//!
//! ## One total event order
//!
//! Every event carries a key `router << 40 | n`: the router that
//! emitted it and that router's emission count. Scripted actions and
//! arrivals take keys at setup (actions first, in scenario order, then
//! arrivals, in injection order, at their target router); every other
//! event takes the next key of the router whose event scheduled it,
//! and a cross message carries its key across. Each group pops the
//! events tied at one `f64` time as a batch and processes them in
//! `(provenance chain, key)` order, so events run in the total order
//!
//! > `(time, provenance chain, source router, per-router emission seq)`.
//!
//! No term depends on the partition. A router's events at one time are
//! the same in every partition (events only schedule strictly later
//! ones), so its emission counts are too, by induction over time. Ties
//! across routers cannot interact: they touch disjoint state.
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
//! Each packet carries its chain as one `u32` handle into the group's
//! [`ChainArena`] of `(pop_time, parent)` nodes, extended by one node
//! per event popped on its behalf — no heap allocation per hop. A
//! cross message serializes the chain (most recent first) into the
//! window's payload sidecar ([`Outbox::payload`]) and the receiving
//! group re-interns it: a by-value copy, semantically free because
//! chains compare by value. Arena memory stays bounded by epoch
//! compaction between same-time batches: once the arena crosses its
//! threshold, the paths reachable from pending events are copied into
//! a fresh epoch and their handles rewritten in place
//! ([`CalendarQueue::for_each_item_mut`]). With more than one group, a
//! delivered packet's chain is materialized by value at delivery so it
//! survives every epoch until the merge.
//!
//! ## Merge and ledger
//!
//! Integer counters (injections, deliveries, per-cause drops, per-flow
//! tallies) commute exactly. The latency/hops Welford moments are
//! order-sensitive: one group feeds them directly, in its processing
//! order, which is the total order; several groups record their
//! deliveries and the merge replays them sorted by `(time, chain,
//! key)` — the same order. `in_flight` is *counted*, not derived:
//! packets in events still queued at the horizon plus cross messages
//! sent but never accepted. A packet lost or double-counted anywhere
//! breaks [`NetStats::conserved`], and the merge freezes the flight
//! recorder when it does.

use crate::chain::{chain_cmp_recent_first, ChainArena, NIL};
use crate::link::{LinkArena, LinkOffer};
use crate::net::{hop, CompiledNetAction, Flow, HopOutcome, NetConfig, NetPacket, NetworkSim};
use crate::stats::{NetDropCause, NetStats};
use crate::telemetry::LpTele;
use crate::topology::Topology;
use dra_core::health::NodeHealth;
use dra_core::scenario::Action;
use dra_des::calendar::CalendarQueue;
use dra_des::pdes::{
    effective_threads, run_windows, LogicalProcess, Outbox, PdesProfile, CACHE_ISOLATION,
};
use dra_des::random::exponential;
use dra_net::fib::Dir248Fib;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::cell::RefCell;

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

/// One delivered packet, recorded for the ordered Welford replay of a
/// multi-group run. The provenance chain lives in the owning group's
/// chain store at `chain_off..chain_off + chain_len`, most recent
/// first.
#[derive(Debug, Clone, Copy)]
struct Delivery {
    at: f64,
    latency_s: f64,
    key: u64,
    chain_off: u32,
    chain_len: u32,
    flow: u32,
    hops: u8,
}

/// A fault action localized to one router. A cable cut splits into one
/// `Link` action per direction; each direction's state is only ever
/// read by its owning router, so the split is unobservable.
#[derive(Debug, Clone)]
enum LocalAct {
    Router(Action),
    Link { port: u16, up: bool },
}

/// The event alphabet of a group. `node` is the router the event
/// happens at; `chain` is a handle into the group's [`ChainArena`].
#[derive(Debug, Clone)]
enum LpEvent {
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
const _: () = assert!(std::mem::size_of::<LpEvent>() <= 40);

impl LpEvent {
    /// The event's provenance chain (arrivals and scripted actions are
    /// roots: empty).
    fn chain(&self) -> u32 {
        match self {
            LpEvent::Transit { chain, .. }
            | LpEvent::Forward { chain, .. }
            | LpEvent::Deliver { chain, .. } => *chain,
            LpEvent::Inject { .. } | LpEvent::Act { .. } => NIL,
        }
    }

    /// Mutable handle access for arena-compaction relocation.
    fn chain_mut(&mut self) -> Option<&mut u32> {
        match self {
            LpEvent::Transit { chain, .. }
            | LpEvent::Forward { chain, .. }
            | LpEvent::Deliver { chain, .. } => Some(chain),
            LpEvent::Inject { .. } | LpEvent::Act { .. } => None,
        }
    }
}

/// A packet crossing to another group, sent with its arrival time at
/// `node` (≥ one link latency after the emitting `Forward`). The
/// provenance chain rides the window's payload sidecar at
/// `chain_off..chain_off + chain_len`, most recent pop first.
struct NetCross {
    pkt: NetPacket,
    node: u32,
    in_port: u16,
    key: u64,
    chain_off: u32,
    chain_len: u32,
}

/// One group's packet accounting, folded into [`NetStats`] by
/// [`merge_ledgers`].
#[derive(Debug)]
struct Ledger {
    /// Injections, per-flow injections and drops; with `direct`, also
    /// every delivery (`delivered`, `flow_delivered` and the Welford
    /// streams). `in_flight` stays 0: the merge counts it.
    stats: NetStats,
    /// Deliveries go straight into `stats` (the one-group run, whose
    /// processing order is already the total order). Otherwise they
    /// are recorded for the ordered replay.
    direct: bool,
    deliveries: Vec<Delivery>,
    /// Delivered packets' chains, materialized most-recent-first.
    chain_store: Vec<f64>,
    /// Packets in events still queued when the run ended.
    pending: u64,
    /// Cross messages this group sent / accepted.
    cross_sent: u64,
    cross_accepted: u64,
}

impl Ledger {
    fn new(n_flows: usize, direct: bool) -> Ledger {
        Ledger {
            stats: NetStats::new(n_flows),
            direct,
            deliveries: Vec::new(),
            chain_store: Vec::new(),
            pending: 0,
            cross_sent: 0,
            cross_accepted: 0,
        }
    }
}

/// A contiguous group of routers as one logical process: the
/// group-local slice of [`NetworkSim`] plus a private calendar queue
/// and provenance arena.
///
/// Aligned to [`CACHE_ISOLATION`] bytes: adjacent groups in the run's
/// slice advance on different threads, and each writes its own queue
/// registers, arena length and event counter on every event, so no two
/// groups may share a cache line (the rule in `dra_des::pdes`).
#[repr(align(128))]
struct GroupLp<'a> {
    /// First router id of the group.
    base: u32,
    topo: &'a Topology,
    /// The group every router belongs to.
    group_of: &'a [u32],
    /// This group's index.
    id: u32,
    cfg: NetConfig,
    routers: Vec<NodeHealth>,
    /// The group's routers' FIBs, borrowed from the shared forwarding.
    fibs: &'a [Dir248Fib],
    /// Outgoing directed links, indexed by `(router - base, port)`.
    links: LinkArena,
    covered_busy: Vec<f64>,
    /// Per-router emission counts: the low bits of every key.
    emitted: Vec<u64>,
    queue: CalendarQueue<LpEvent>,
    /// Arrivals `(time, key, packet)` sorted by `(time, key)`; the key
    /// names the source router. `staged[next_staged - 1]` is the one
    /// in the queue.
    staged: Vec<(f64, u64, NetPacket)>,
    next_staged: usize,
    arena: ChainArena,
    /// Same-time batch staging, reused across pops and windows.
    batch: Vec<(u64, LpEvent)>,
    ledger: Ledger,
    /// Telemetry collector, folded into the run's collector in group
    /// order after the run. `None` whenever collection is off, so the
    /// hot path pays one branch per hook and nothing else.
    tele: Option<Box<LpTele>>,
    /// Events processed, read by the engine profiler via
    /// [`LogicalProcess::events_processed`].
    events: u64,
}

const _: () = assert!(std::mem::align_of::<GroupLp<'static>>() >= CACHE_ISOLATION);

impl GroupLp<'_> {
    /// The next key of `node` (see the module docs).
    #[inline]
    fn key(&mut self, node: u32) -> u64 {
        let n = &mut self.emitted[(node - self.base) as usize];
        assert!(*n < 1 << KEY_SHIFT, "router {node} ran out of event keys");
        let key = (node as u64) << KEY_SHIFT | *n;
        *n += 1;
        key
    }

    /// Push `event`, emitted by `node`, at `time`.
    #[inline]
    fn push(&mut self, time: f64, node: u32, event: LpEvent) {
        let key = self.key(node);
        self.queue.push(time, key, event);
    }

    /// Move the next staged arrival into the queue.
    fn stage_next(&mut self) {
        if let Some(&(at, key, pkt)) = self.staged.get(self.next_staged) {
            self.next_staged += 1;
            let node = (key >> KEY_SHIFT) as u32;
            let in_port = self.topo.host_port(node);
            self.queue
                .push(at, key, LpEvent::Inject { pkt, node, in_port });
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
        let i = (node - self.base) as usize;
        let outcome = hop(
            node,
            &mut self.routers[i],
            &self.fibs[i],
            &mut self.covered_busy[i],
            &self.cfg,
            now,
            &mut pkt,
            in_port,
        );
        if let Some(t) = self.tele.as_deref_mut() {
            let node_transit_s = self.cfg.node_transit_s;
            t.col
                .transit_outcome(&mut t.nc[i], now, node, &pkt, &outcome, node_transit_s);
        }
        match outcome {
            HopOutcome::Drop(cause) => self.drop_at(pkt.id, node, cause),
            HopOutcome::Deliver { delay_s } => {
                let chain = self.arena.extend(chain, now);
                self.push(now + delay_s, node, LpEvent::Deliver { pkt, node, chain });
            }
            HopOutcome::Forward { delay_s, out_port } => {
                let chain = self.arena.extend(chain, now);
                self.push(
                    now + delay_s,
                    node,
                    LpEvent::Forward {
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
    /// peer (locally or as a cross message) or drop it.
    fn forward(
        &mut self,
        now: f64,
        pkt: NetPacket,
        node: u32,
        out_port: u16,
        chain: u32,
        out: &mut Outbox<NetCross, Vec<f64>>,
    ) {
        let i = node - self.base;
        let offer =
            self.links
                .at_mut(i, out_port)
                .offer(&self.cfg.link, now, self.cfg.packet_bytes);
        if let Some(t) = self.tele.as_deref_mut() {
            t.col
                .forward_outcome(&mut t.nc[i as usize], now, node, out_port, &pkt, &offer);
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
        let peer = self.topo.adj[node as usize][out_port as usize];
        let in_port = self.topo.rev_port[node as usize][out_port as usize];
        let key = self.key(node);
        let group = self.group_of[peer as usize];
        if group == self.id {
            // The peer's Transit descends from this pop, exactly the
            // chain the cross path serializes below.
            let chain = self.arena.extend(chain, now);
            let transit = LpEvent::Transit {
                pkt,
                node: peer,
                in_port,
                chain,
            };
            self.queue.push(now + delay_s, key, transit);
        } else {
            let chain_off = out.payload.len() as u32;
            out.payload.push(now);
            self.arena.serialize_into(chain, &mut out.payload);
            let chain_len = out.payload.len() as u32 - chain_off;
            out.send(
                group,
                now + delay_s,
                NetCross {
                    pkt,
                    node: peer,
                    in_port,
                    key,
                    chain_off,
                    chain_len,
                },
            );
            self.ledger.cross_sent += 1;
        }
    }

    /// A packet reaches its destination's host port at `node`.
    fn deliver(&mut self, now: f64, key: u64, pkt: NetPacket, node: u32, chain: u32) {
        dra_telemetry::event(
            dra_telemetry::EventKind::NetDeliver,
            pkt.id,
            node,
            pkt.hops as u32,
        );
        let latency_s = now - pkt.injected_at;
        let ledger = &mut self.ledger;
        if let Some(t) = self.tele.as_deref_mut() {
            t.col
                .delivered(&mut t.nc[(node - self.base) as usize], now, node, &pkt);
            if t.col.is_sampled(pkt.id) {
                // Kept for the span-vs-provenance cross-check.
                let mut times = Vec::new();
                self.arena.serialize_into(chain, &mut times);
                t.chains.push((pkt.id, times));
            }
        }
        if ledger.direct {
            let s = &mut ledger.stats;
            s.delivered += 1;
            s.flow_delivered[pkt.flow as usize] += 1;
            s.latency.push(latency_s);
            s.hops.push(pkt.hops as f64);
        } else {
            let chain_off = ledger.chain_store.len() as u32;
            self.arena.serialize_into(chain, &mut ledger.chain_store);
            let chain_len = ledger.chain_store.len() as u32 - chain_off;
            ledger.deliveries.push(Delivery {
                at: now,
                latency_s,
                key,
                chain_off,
                chain_len,
                flow: pkt.flow,
                hops: pkt.hops,
            });
        }
    }

    /// Process one event popped at `now`.
    fn handle(&mut self, now: f64, key: u64, event: LpEvent, out: &mut Outbox<NetCross, Vec<f64>>) {
        self.events += 1;
        match event {
            LpEvent::Inject { pkt, node, in_port } => {
                self.ledger.stats.injected += 1;
                self.ledger.stats.flow_injected[pkt.flow as usize] += 1;
                self.transit(now, pkt, node, in_port, NIL);
            }
            LpEvent::Transit {
                pkt,
                node,
                in_port,
                chain,
            } => self.transit(now, pkt, node, in_port, chain),
            LpEvent::Forward {
                pkt,
                node,
                out_port,
                chain,
            } => self.forward(now, pkt, node, out_port, chain, out),
            LpEvent::Deliver { pkt, node, chain } => self.deliver(now, key, pkt, node, chain),
            LpEvent::Act { node, idx, act } => {
                dra_telemetry::event(dra_telemetry::EventKind::NetAct, 0, node, idx);
                let i = node - self.base;
                match act {
                    LocalAct::Router(action) => {
                        let router = &mut self.routers[i as usize];
                        router.advance_to(now);
                        router.apply(&action);
                    }
                    LocalAct::Link { port, up } => self.links.at_mut(i, port).set_up(up),
                }
            }
        }
    }

    /// Compact the provenance arena: every live chain is reachable
    /// from a pending queue event (cross messages carry theirs by
    /// value; delivered chains are already materialized).
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
}

impl LogicalProcess for GroupLp<'_> {
    type Cross = NetCross;
    type Payload = Vec<f64>;

    fn advance_window(&mut self, window_end: f64, out: &mut Outbox<NetCross, Vec<f64>>) {
        // The payload buffer is this group's own (one per window
        // parity), recycled from two barriers ago.
        out.payload.clear();
        let mut batch = std::mem::take(&mut self.batch);
        while let Some((now, key, event)) = self.queue.pop_at_or_before(window_end) {
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
                if matches!(e, LpEvent::Inject { .. }) {
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
            for (key, event) in batch.drain(..) {
                self.handle(now, key, event, out);
            }
            if self.arena.should_compact() {
                self.compact();
            }
        }
        self.batch = batch;
    }

    fn accept(&mut self, time: f64, msg: NetCross, payload: &Vec<f64>) {
        let lo = msg.chain_off as usize;
        let hi = lo + msg.chain_len as usize;
        let chain = self.arena.intern_recent_first(&payload[lo..hi]);
        self.ledger.cross_accepted += 1;
        self.queue.push(
            time,
            msg.key,
            LpEvent::Transit {
                pkt: msg.pkt,
                node: msg.node,
                in_port: msg.in_port,
                chain,
            },
        );
    }

    fn next_time(&mut self) -> f64 {
        self.queue.min_time().unwrap_or(f64::INFINITY)
    }

    fn events_processed(&self) -> u64 {
        self.events
    }
}

/// Run `net` to `horizon` with [`NetConfig::sim_threads`] equal
/// contiguous router groups (see the module docs).
pub(crate) fn run(net: NetworkSim, seed: u64, horizon: f64) -> NetworkSim {
    let n = net.topo.n_nodes();
    let groups = effective_threads(net.cfg.sim_threads, n);
    let starts: Vec<u32> = (0..groups).map(|g| (g * n / groups) as u32).collect();
    run_partitioned(net, seed, horizon, &starts)
}

/// Run `net` to `horizon` with one group per range
/// `starts[g]..starts[g + 1]` (the last ending at the router count).
/// Any partition produces the same final state bytes.
///
/// # Panics
/// Panics unless `starts` begins at 0 and increases strictly below
/// the router count, or on a bad horizon.
pub(crate) fn run_partitioned(
    net: NetworkSim,
    seed: u64,
    horizon: f64,
    starts: &[u32],
) -> NetworkSim {
    assert!(
        horizon.is_finite() && horizon >= 0.0,
        "network run: bad horizon {horizon}"
    );
    let n_nodes = net.topo.n_nodes();
    assert!(
        starts.first() == Some(&0)
            && starts.windows(2).all(|w| w[0] < w[1])
            && starts.iter().all(|&s| (s as usize) < n_nodes),
        "network run: bad group starts {starts:?} for {n_nodes} routers"
    );
    let NetworkSim {
        topo,
        forwarding,
        nodes,
        links,
        covered_busy,
        flows,
        scenario,
        compiled,
        cfg,
        stats: _,
        events: _,
        mut tele,
    } = net;
    let hop_budget = forwarding.hop_budget();
    let n_groups = starts.len();
    let end_of = |g: usize| starts.get(g + 1).map_or(n_nodes, |&s| s as usize);
    let mut group_of = vec![0u32; n_nodes];
    for g in 0..n_groups {
        group_of[starts[g] as usize..end_of(g)].fill(g as u32);
    }
    // One group has no cross messages to wait for: one window spans
    // the run. Otherwise the conservative lookahead is the minimum
    // latency over the attached links.
    let link_lookahead = links.min_latency().unwrap_or(cfg.link.latency_s);
    let lookahead = if n_groups == 1 {
        link_lookahead.max(2.0 * horizon)
    } else {
        link_lookahead
    };
    let (mut arrivals, mut pending) = PRECOMPUTE_POOL.with(|p| {
        let mut pool = p.borrow_mut();
        (std::mem::take(&mut pool.0), std::mem::take(&mut pool.1))
    });
    precompute_arrivals_into(
        &flows,
        cfg.traffic_stop_s,
        horizon,
        seed,
        &mut arrivals,
        &mut pending,
    );

    // Exact-size the per-group staging vectors up front.
    let mut staged_counts = vec![0usize; n_groups];
    for a in &arrivals {
        staged_counts[group_of[flows[a.flow as usize].src as usize] as usize] += 1;
    }
    let sample_every = tele.as_ref().map(|t| t.sample_every());
    let mut nodes = nodes.into_iter();
    let mut per_node_links = links.into_per_node().into_iter();
    let mut covered_busy = covered_busy.into_iter();
    let mut lps: Vec<GroupLp> = (0..n_groups)
        .map(|g| {
            let len = end_of(g) - starts[g] as usize;
            GroupLp {
                base: starts[g],
                topo: &topo,
                group_of: &group_of,
                id: g as u32,
                cfg,
                routers: nodes.by_ref().take(len).collect(),
                fibs: &forwarding.fibs()[starts[g] as usize..end_of(g)],
                links: LinkArena::from_per_node(per_node_links.by_ref().take(len)),
                covered_busy: covered_busy.by_ref().take(len).collect(),
                emitted: vec![0; len],
                queue: CalendarQueue::new(),
                staged: Vec::with_capacity(staged_counts[g]),
                next_staged: 0,
                arena: ChainArena::new(),
                batch: Vec::new(),
                ledger: Ledger::new(flows.len(), n_groups == 1),
                tele: sample_every.map(|s| Box::new(LpTele::new(s, len, n_groups))),
                events: 0,
            }
        })
        .collect();

    // Keys at setup: scripted actions in scenario order, then arrivals
    // in injection order, each at its target router.
    for (idx, ((at, _), act)) in scenario.iter().zip(&compiled).enumerate() {
        let idx = idx as u32;
        let mut push = |node: u32, act: LocalAct| {
            let lp = &mut lps[group_of[node as usize] as usize];
            lp.push(*at, node, LpEvent::Act { node, idx, act });
        };
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
    for a in &arrivals {
        let f = flows[a.flow as usize];
        let lp = &mut lps[group_of[f.src as usize] as usize];
        let key = lp.key(f.src);
        let pkt = NetPacket {
            id: a.id,
            injected_at: a.at,
            flow: a.flow,
            dst: f.dst as u16,
            ttl: hop_budget,
            hops: 0,
        };
        lp.staged.push((a.at, key, pkt));
    }
    PRECOMPUTE_POOL.with(|p| {
        let mut pool = p.borrow_mut();
        pool.0 = std::mem::take(&mut arrivals);
        pool.1 = std::mem::take(&mut pending);
    });
    for lp in &mut lps {
        // Arrivals come in time order; the sort breaks exact time ties
        // by key, the order the queue pops them in.
        lp.staged
            .sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        lp.stage_next();
    }

    // With a collector installed, profile the run (identical
    // simulation result) and fold the engine profile plus the
    // per-group lookahead distribution into the non-deterministic
    // `profile` section.
    let mut prof = tele.as_ref().map(|_| PdesProfile::default());
    run_windows(&mut lps, lookahead, horizon, n_groups, prof.as_mut());
    if let (Some(t), Some(prof)) = (tele.as_deref_mut(), prof) {
        let mut ep = dra_telemetry::netscope::EngineProfile {
            runs: 1,
            threads: prof.threads as u64,
            windows: prof.windows,
            cross_messages: prof.cross_messages,
            wall_ns: prof.wall_ns,
            barrier_wait_ns: prof.barrier_wait_ns,
            nonempty_windows: prof.nonempty_windows,
            window_max_events_sum: prof.window_max_events_sum,
            lp_events: prof.lp_events,
            lp_busy_windows: prof.lp_busy_windows,
            ..Default::default()
        };
        for lp in &lps {
            // Each group's own conservative bound: the minimum latency
            // over its routers' outgoing links.
            let la = lp.links.min_latency().unwrap_or(cfg.link.latency_s);
            ep.lookahead_min_s = ep.lookahead_min_s.min(la);
            ep.lookahead_max_s = ep.lookahead_max_s.max(la);
            ep.lookahead_sum_s += la;
            ep.lookahead_lps += 1;
        }
        t.profile = Some(ep);
    }

    // Reassemble: state concatenates in group order, the ledgers merge.
    let mut nodes = Vec::with_capacity(n_nodes);
    let mut per_node_links = Vec::with_capacity(n_nodes);
    let mut covered_busy = Vec::with_capacity(n_nodes);
    let mut ledgers = Vec::with_capacity(n_groups);
    let mut events = 0;
    for mut lp in lps {
        let mut in_queue = 0u64;
        lp.queue.for_each_item_mut(|e| {
            if matches!(
                e,
                LpEvent::Transit { .. } | LpEvent::Forward { .. } | LpEvent::Deliver { .. }
            ) {
                in_queue += 1;
            }
        });
        lp.ledger.pending = in_queue;
        if let (Some(lpt), Some(t)) = (lp.tele, tele.as_deref_mut()) {
            // Group order makes the fold order partition-invariant up
            // to the export's canonical sort.
            t.fold_group(lp.base as usize, *lpt);
        }
        events += lp.events;
        ledgers.push(lp.ledger);
        nodes.extend(lp.routers);
        per_node_links.extend(lp.links.into_per_node());
        covered_busy.extend(lp.covered_busy);
    }
    let stats = merge_ledgers(ledgers, flows.len());
    NetworkSim {
        topo,
        forwarding,
        nodes,
        links: LinkArena::from_per_node(per_node_links.into_iter()),
        covered_busy,
        flows,
        scenario,
        compiled,
        cfg,
        stats,
        events,
        tele,
    }
}

/// Fold the groups' ledgers into one [`NetStats`]: counters sum, the
/// Welford moments replay in `(time, chain, key)` order, and
/// `in_flight` counts what is still pending. A ledger that lost or
/// double-counted a packet fails [`NetStats::conserved`], which
/// freezes the flight-recorder window (first violation wins; the
/// frozen window becomes the telemetry document's `anomaly`).
fn merge_ledgers(ledgers: Vec<Ledger>, n_flows: usize) -> NetStats {
    let mut stats = NetStats::new(n_flows);
    let (mut sent, mut accepted) = (0u64, 0u64);
    let mut deliveries: Vec<(usize, Delivery)> = Vec::new();
    let mut chain_stores = Vec::with_capacity(ledgers.len());
    for (g, ledger) in ledgers.into_iter().enumerate() {
        let s = ledger.stats;
        stats.injected += s.injected;
        stats.delivered += s.delivered;
        stats.in_flight += ledger.pending;
        for (acc, d) in stats.drops.iter_mut().zip(s.drops) {
            *acc += d;
        }
        for (acc, v) in stats.flow_injected.iter_mut().zip(&s.flow_injected) {
            *acc += v;
        }
        for (acc, v) in stats.flow_delivered.iter_mut().zip(&s.flow_delivered) {
            *acc += v;
        }
        if ledger.direct {
            stats.latency = s.latency;
            stats.hops = s.hops;
        }
        sent += ledger.cross_sent;
        accepted += ledger.cross_accepted;
        deliveries.extend(ledger.deliveries.into_iter().map(|d| (g, d)));
        chain_stores.push(ledger.chain_store);
    }
    stats.in_flight += sent
        .checked_sub(accepted)
        .expect("groups accepted more cross messages than were sent");
    let chain_of = |(g, d): &(usize, Delivery)| -> &[f64] {
        &chain_stores[*g][d.chain_off as usize..(d.chain_off + d.chain_len) as usize]
    };
    deliveries.sort_unstable_by(|x, y| {
        x.1.at
            .total_cmp(&y.1.at)
            .then_with(|| chain_cmp_recent_first(chain_of(x), chain_of(y)))
            .then(x.1.key.cmp(&y.1.key))
    });
    for (_, d) in &deliveries {
        stats.delivered += 1;
        stats.flow_delivered[d.flow as usize] += 1;
        stats.latency.push(d.latency_s);
        stats.hops.push(d.hops as f64);
    }
    if !stats.conserved() {
        dra_telemetry::anomaly("net: conservation ledger violation");
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::build_network;
    use crate::link::LinkConfig;
    use crate::net::{NetAction, NetScenario};
    use crate::oracle::run_serial;
    use crate::spec::{FlowSpec, TopoCellSpec, TopoFaultSpec};
    use crate::topology::TopologyKind;
    use dra_core::health::ArchKind;
    use dra_des::stats::Welford;
    use proptest::prelude::*;

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

    /// The fault surfaces the partition tests cover.
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
            id: "partition".into(),
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
            // backlog (the `set_up` contract) in every partition.
            let b = net.topo.adj[0][0];
            net.set_scenario(
                &NetScenario::new()
                    .at(2e-3, NetAction::FailLink { a: 0, b })
                    .at(5e-3, NetAction::RepairLink { a: 0, b }),
            );
        }
        (net, format!("{arch:?}/{}/{faults:?}", topology.label()))
    }

    fn run_cut(net: NetworkSim, starts: &[u32]) -> NetStats {
        run_partitioned(net, 42, HORIZON, starts).stats
    }

    /// Group starts for `n` routers: router `i > 0` opens a group when
    /// a hash of `(seed, i)` falls below `density` quarters, so
    /// density 0 is one group and 4 is one router per group.
    fn cuts(n: usize, density: u64, seed: u64) -> Vec<u32> {
        let mut starts = vec![0];
        for i in 1..n as u64 {
            let h = crate::seeds::node_seed(seed, i);
            if h % 4 < density {
                starts.push(i as u32);
            }
        }
        starts
    }

    #[test]
    fn serial_oracle_matches_one_group() {
        for i in 0..TOPOLOGIES.len() * ARCHS.len() * FAULTS.len() {
            let (net, ctx) = case(i);
            let oracle = run_serial(case(i).0, 42, HORIZON);
            assert!(oracle.injected > 0, "{ctx}: degenerate case");
            assert_stats_identical(&oracle, &run_cut(net, &[0]), &ctx);
        }
    }

    #[test]
    fn every_router_its_own_group_matches_one_group() {
        for i in 0..TOPOLOGIES.len() * ARCHS.len() * FAULTS.len() {
            let (net, ctx) = case(i);
            let n = net.topo.n_nodes();
            let one = run_cut(net, &[0]);
            for starts in [cuts(n, 4, 0), vec![0, n as u32 / 2]] {
                let ctx = format!("{ctx} starts {starts:?}");
                assert_stats_identical(&one, &run_cut(case(i).0, &starts), &ctx);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Any contiguous partition, from one group to one router per
        /// group, reproduces the one-group run bit for bit.
        #[test]
        fn any_partition_matches_one_group(
            i in 0usize..20,
            density in 0u64..5,
            seed in any::<u64>(),
        ) {
            let (net, ctx) = case(i);
            let starts = cuts(net.topo.n_nodes(), density, seed);
            let one = run_cut(net, &[0]);
            assert_stats_identical(&one, &run_cut(case(i).0, &starts), &format!("{ctx} {starts:?}"));
        }
    }

    #[test]
    fn partitions_agree_with_heterogeneous_latencies() {
        // A mesh with one slow WAN-ish edge and one extra-fast edge:
        // the window width comes from the fast edge, and messages over
        // the slow edge arrive many windows early.
        let build = || {
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
            let mut net = NetworkSim::new(topo, dra_core::health::ArchKind::Dra, cfg, flows);
            net.set_link_latency(5, 6, 80e-6);
            net.set_link_latency(9, 10, 2e-6);
            net.set_scenario(&NetScenario::new().at(3e-3, NetAction::FailLink { a: 9, b: 10 }));
            net
        };
        let oracle = run_serial(build(), 11, HORIZON);
        assert!(oracle.delivered > 100, "want traffic across the slow edge");
        for starts in [vec![0], vec![0, 8], vec![0, 5, 6, 10], cuts(16, 4, 0)] {
            let stats = run_partitioned(build(), 11, HORIZON, &starts).stats;
            assert_stats_identical(&oracle, &stats, &format!("hetero {starts:?}"));
        }
    }

    #[test]
    fn partitions_agree_at_scale() {
        // 64 routers with real cross-group traffic volume.
        let cell = TopoCellSpec {
            id: "partition-scale".into(),
            arch: ArchKind::Dra,
            topology: TopologyKind::Mesh2D { rows: 8, cols: 8 },
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
        let net = || build_network(&cell, 0xD8A_70B0, 0);
        let one = run_partitioned(net(), 42, 8e-3, &[0]).stats;
        assert!(one.injected > 200, "want real traffic volume");
        for starts in [vec![0, 32], vec![0, 16, 32, 48], cuts(64, 4, 0)] {
            let stats = run_partitioned(net(), 42, 8e-3, &starts).stats;
            assert_stats_identical(&one, &stats, &format!("scale {starts:?}"));
        }
    }

    #[test]
    fn in_flight_is_counted_not_derived() {
        // A horizon inside the traffic window leaves packets pending:
        // the ledger counts them from the queues and cross messages.
        let (net, _) = case(1);
        let starts = cuts(net.topo.n_nodes(), 4, 0);
        let stats = run_partitioned(net, 42, 3e-3, &starts).stats;
        assert!(stats.in_flight > 0, "no packet pending at the horizon");
        assert!(stats.conserved());
        assert_stats_identical(
            &stats,
            &run_partitioned(case(1).0, 42, 3e-3, &[0]).stats,
            "cut",
        );
    }

    #[test]
    fn a_miscounted_ledger_fails_conservation() {
        let ledger = |injected, drops, pending, sent, accepted| {
            let mut l = Ledger::new(1, false);
            l.stats.injected = injected;
            l.stats.flow_injected[0] = injected;
            l.stats.drops[NetDropCause::LinkDown.index()] = drops;
            l.pending = pending;
            l.cross_sent = sent;
            l.cross_accepted = accepted;
            l
        };
        // Group 0 injected 4, dropped 1 and sent 2 across; group 1
        // accepted 1 and still holds it; 1 cross message is in transit.
        let balanced = || vec![ledger(4, 1, 1, 2, 0), ledger(0, 0, 1, 0, 1)];
        assert!(merge_ledgers(balanced(), 1).conserved());
        // A packet lost between groups (accepted but never queued).
        let mut lost = balanced();
        lost[1].pending = 0;
        assert!(!merge_ledgers(lost, 1).conserved());
        // A packet counted twice (dropped and still pending).
        let mut twice = balanced();
        twice[0].stats.drops[NetDropCause::LinkDown.index()] += 1;
        assert!(!merge_ledgers(twice, 1).conserved());
    }
}
