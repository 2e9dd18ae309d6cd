//! Parallel execution of one [`NetworkSim`]: per-router logical
//! processes on the conservative windowed engine of
//! [`dra_des::pdes`].
//!
//! ## Decomposition
//!
//! Everything a packet touches at one hop is owned by one router:
//! its [`NodeHealth`], FIB, EIB coverage budget, and the *outgoing*
//! directions of its links. The only interaction between routers is a
//! `Forward` → link → `Transit`-at-peer handoff, and the link model
//! charges at least that link's propagation latency on every such
//! handoff. The conservative lookahead is therefore the **minimum
//! latency over every attached link** ([`LinkArena::min_latency`]) —
//! known before the run, and adaptive: heterogeneous topologies get
//! the widest window their slowest-common-denominator link permits,
//! while messages over longer-latency links are simply delivered
//! early (always safe — see the safety note in `dra_des::pdes`). Each
//! router becomes one [`LogicalProcess`] with its own calendar queue,
//! and cross-router packets travel as [`NetCross`] messages merged at
//! barrier windows. Each window starts at the network's next pending
//! time — an LP reports the earlier of its queue head and its next
//! staged arrival ([`LogicalProcess::next_time`]) — and spans one full
//! lookahead, so a lightly loaded or draining network crosses its idle
//! stretches without paying a barrier per lookahead.
//!
//! ## Replaying the serial arrival stream
//!
//! The serial model's only shared-RNG draws are flow inter-arrival
//! times, and a `FlowNext` event's time depends only on previous
//! draws — never on packet forwarding. [`precompute_arrivals_into`]
//! replays the serial kernel's exact draw order (a (time, sequence)
//! total order over `FlowNext` events alone) on the same seeded RNG,
//! turning the whole arrival timeline into data before any LP starts
//! (into buffers pooled across replications). Each injection becomes
//! a pre-inserted `Transit` at the source LP with the bit-exact
//! serial timestamp and packet id.
//!
//! ## Tie order: the provenance chain
//!
//! The serial kernel breaks exact `f64` time ties by scheduling
//! sequence, and such ties are *structural*, not measure-zero: the EIB
//! coverage budget is a fluid queue (`finish = covered_busy.max(now) +
//! c`), so under backlog the completion times it hands out chain off
//! `covered_busy` in fixed increments rather than off the packets' own
//! arrival times, and the link model serializes `busy_until` the same
//! way. Two packets can therefore collide on a timestamp bit-for-bit —
//! and because both the coverage budget and the links are *stateful*,
//! the order tied events are processed in changes which packet gets
//! which delay, not merely the order of identical outcomes.
//!
//! Serial scheduling sequence is recovered exactly from event
//! *provenance*: an event's sequence number orders it after its
//! scheduler, so two tied events compare as their schedulers' pop
//! times, recursively — i.e. as their ancestor chains of pop times,
//! most recent first. Each packet carries that chain as one `u32`
//! handle into a per-LP [`ChainArena`] of `(pop_time, parent)` nodes
//! (extended by one node per event popped on its behalf — no heap
//! allocation per hop); each LP pops same-time batches and sorts them
//! by the arena's parent-pointer walk — the identical
//! most-recent-first order the retained `Vec<f64>` representation
//! compared — before touching any state. Chains bottom out at
//! injections (`FlowNext` provenance) and scripted actions (`Start`
//! provenance), whose times are fresh RNG draws or scenario constants
//! with no shared lineage — only there does the tie-break fall back to
//! insertion order, and only there is the contract's measure-zero fine
//! print (documented in DESIGN.md).
//!
//! Cross-LP handoffs serialize the chain (most recent first) into the
//! window's payload sidecar ([`Outbox::payload`]) and the receiving LP
//! re-interns it into its own arena — a by-value copy, which is
//! semantically free because chains are compared by value. Arena
//! memory stays bounded by epoch-based compaction at window barriers:
//! when an LP's arena crosses its threshold, the paths reachable from
//! still-pending events are copied into a fresh epoch and their
//! handles rewritten in place ([`CalendarQueue::for_each_item_mut`]);
//! everything else is garbage. Delivered packets' chains are
//! materialized by value into a per-LP store at delivery time, so
//! they survive every epoch until the final merge.
//!
//! ## Merge rules
//!
//! Integer counters (injections, deliveries, per-cause drops, per-flow
//! tallies) commute exactly. The latency/hops Welford moments are
//! order-sensitive, so each LP records its deliveries and the merge
//! replays them into one Welford stream sorted by delivery time, with
//! the provenance chain breaking exact ties (stable, per-node order on
//! full-chain ties). `in_flight` is recomputed from the ledger. The CI
//! `topo-smoke` job pins `--sim-threads` 1 vs 2 vs 4 byte-identity.

use crate::chain::{chain_cmp_recent_first, ChainArena, NIL};
use crate::link::{LinkArena, LinkOffer, LinkState};
use crate::net::{hop, CompiledNetAction, Flow, HopOutcome, NetConfig, NetPacket, NetworkSim};
use crate::stats::{NetDropCause, NetStats};
use dra_core::health::NodeHealth;
use dra_core::scenario::Action;
use dra_des::calendar::CalendarQueue;
use dra_des::pdes::{run_windows, LogicalProcess, Outbox, PdesProfile};
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

/// Replay the serial kernel's flow-arrival draw order into `out`.
///
/// In the serial model `Start` draws one inter-arrival per flow (in
/// flow order), then each `FlowNext` pop draws the next one — unless
/// it fires at or past `stop_s` (no draw, flow ends) or lands beyond
/// `horizon` (never pops). `FlowNext` pops follow the kernel's
/// (time, sequence) order, which restricted to arrivals is exactly
/// "earliest pending time, insertion order on ties" — reproduced here
/// with a scan (flow counts are small). Same RNG, same draw sequence,
/// bit-identical timestamps and packet ids. `pending` is caller-owned
/// scratch ((next fire time, insertion order, alive) per flow).
fn precompute_arrivals_into(
    flows: &[Flow],
    stop_s: f64,
    horizon: f64,
    seed: u64,
    out: &mut Vec<Arrival>,
    pending: &mut Vec<(f64, u64, bool)>,
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

/// One delivered packet, recorded for the ordered Welford replay. The
/// provenance chain (pop times of every event processed on its
/// behalf, most recent first) lives in the owning LP's chain store at
/// `chain_off..chain_off + chain_len` — materialized by value at
/// delivery time so it survives arena compaction epochs.
#[derive(Debug, Clone, Copy)]
struct Delivery {
    at: f64,
    latency_s: f64,
    chain_off: u32,
    chain_len: u32,
    flow: u32,
    hops: u8,
}

/// A fault action localized to one router LP. A cable cut, atomic in
/// the serial model, splits into one `Link` action per direction —
/// each direction's state is only ever read by its owning LP, so the
/// split is unobservable.
#[derive(Debug, Clone)]
enum LocalAct {
    Router(Action),
    Link { port: u16, up: bool },
}

/// Local event alphabet of one router LP (the node-local restriction
/// of [`crate::net::NetEvent`]; arrivals are pre-inserted `Transit`s).
/// `chain` is a handle into the owning LP's [`ChainArena`].
#[derive(Debug, Clone)]
enum LpEvent {
    Transit {
        pkt: NetPacket,
        in_port: u16,
        chain: u32,
    },
    Forward {
        pkt: NetPacket,
        out_port: u16,
        chain: u32,
    },
    Deliver {
        pkt: NetPacket,
        chain: u32,
    },
    Act(LocalAct),
}

// The hot-path variants stay within 32 bytes (24-byte packet + port +
// chain handle + discriminant); only scripted actions may exceed it.
const _: () = assert!(std::mem::size_of::<LpEvent>() <= 32);

impl LpEvent {
    /// The event's provenance chain (scripted actions descend from
    /// `Start`, injected transits from `FlowNext`: both empty).
    fn chain(&self) -> u32 {
        match self {
            LpEvent::Transit { chain, .. }
            | LpEvent::Forward { chain, .. }
            | LpEvent::Deliver { chain, .. } => *chain,
            LpEvent::Act(_) => NIL,
        }
    }

    /// Mutable handle access for arena-compaction relocation.
    fn chain_mut(&mut self) -> Option<&mut u32> {
        match self {
            LpEvent::Transit { chain, .. }
            | LpEvent::Forward { chain, .. }
            | LpEvent::Deliver { chain, .. } => Some(chain),
            LpEvent::Act(_) => None,
        }
    }
}

/// A packet crossing between router LPs, sent with its arrival time at
/// the peer (≥ one link latency after the emitting `Forward`). The
/// provenance chain rides the window's payload sidecar at
/// `chain_off..chain_off + chain_len`, most recent pop first.
struct NetCross {
    pkt: NetPacket,
    in_port: u16,
    chain_off: u32,
    chain_len: u32,
}

/// One router as a logical process: the node-local slice of
/// [`NetworkSim`] plus a private calendar queue and provenance arena.
struct NodeLp {
    node: u32,
    cfg: NetConfig,
    router: NodeHealth,
    fib: Dir248Fib,
    /// Outgoing directed links, by port.
    links: Vec<LinkState>,
    /// `peers[p]` = node at the far end of port `p`.
    peers: Vec<u32>,
    /// `peer_in_port[p]` = the peer's port facing back at us.
    peer_in_port: Vec<u16>,
    covered_busy: f64,
    queue: CalendarQueue<LpEvent>,
    seq: u64,
    /// Precomputed traffic arrivals `(time, seq, pkt, in_port)`,
    /// sorted by `(time, seq)` and fed into the queue one window at a
    /// time by `advance_window`. Staging keeps the calendar population
    /// bounded by the in-flight event count instead of the full
    /// horizon's arrival schedule — the queue never grows (or
    /// allocates) proportionally to how long the run is. The `(time,
    /// seq)` keys are assigned at setup exactly as eager insertion
    /// would have assigned them, and calendar pop order is a pure
    /// function of those keys, so late insertion is unobservable.
    staged: Vec<(f64, u64, NetPacket, u16)>,
    /// Cursor into `staged`: everything before it has been fed.
    next_staged: usize,
    /// Interned provenance chains for every pending local event.
    arena: ChainArena,
    /// Same-time batch staging, reused across pops and windows.
    batch: Vec<(u64, LpEvent)>,
    /// Delivered packets' chains, materialized most-recent-first.
    chain_store: Vec<f64>,
    drops: [u64; 8],
    deliveries: Vec<Delivery>,
    /// Per-LP telemetry collector (counters, sampled spans, sampled
    /// delivered chains), folded into the network-scope collector in
    /// LP-id order after the run. `None` whenever collection is off,
    /// so the hot path pays one branch per event and nothing else.
    tele: Option<Box<crate::telemetry::LpTele>>,
    /// Events processed, read by the engine profiler via
    /// [`LogicalProcess::events_processed`].
    events: u64,
}

impl NodeLp {
    fn push(&mut self, time: f64, event: LpEvent) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(time, seq, event);
    }

    /// Record an arrival for lazy injection, consuming a `seq` exactly
    /// as an eager `push` would have.
    fn stage(&mut self, time: f64, pkt: NetPacket, in_port: u16) {
        let seq = self.seq;
        self.seq += 1;
        self.staged.push((time, seq, pkt, in_port));
    }
}

impl LogicalProcess for NodeLp {
    type Cross = NetCross;
    type Payload = Vec<f64>;

    fn advance_window(&mut self, window_end: f64, out: &mut Outbox<NetCross, Vec<f64>>) {
        // The payload buffer is this LP's own (one per window parity),
        // recycled from two barriers ago; offsets restart at zero each
        // window.
        out.payload.clear();
        // Feed this window's staged arrivals before draining anything:
        // their pre-assigned `(time, seq)` keys slot them into the pop
        // order exactly where eager insertion would have.
        while let Some(&(t, seq, pkt, in_port)) = self.staged.get(self.next_staged) {
            if t > window_end {
                break;
            }
            self.next_staged += 1;
            self.queue.push(
                t,
                seq,
                LpEvent::Transit {
                    pkt,
                    in_port,
                    chain: NIL,
                },
            );
        }
        let mut batch = std::mem::take(&mut self.batch);
        while let Some((now, seq, event)) = self.queue.pop_at_or_before(window_end) {
            // Drain every event tied at `now` and order the batch by
            // provenance (the serial scheduling sequence) before any
            // of them touches the router, budget, or link state.
            // Processing only ever schedules strictly later events
            // (every hop and link delay is positive), so the batch is
            // closed once drained.
            batch.clear();
            batch.push((seq, event));
            while let Some((t, s, e)) = self.queue.pop_at_or_before(now) {
                debug_assert_eq!(t, now, "queue returned an event before the popped minimum");
                batch.push((s, e));
            }
            if batch.len() > 1 {
                // Unstable sort: the trailing `seq` compare makes the
                // order total (seqs are unique), and the unstable
                // algorithm never allocates sort scratch on the hot
                // path.
                let arena = &self.arena;
                batch.sort_unstable_by(|a, b| {
                    arena.cmp(a.1.chain(), b.1.chain()).then(a.0.cmp(&b.0))
                });
            }
            for (_seq, event) in batch.drain(..) {
                self.events += 1;
                match event {
                    LpEvent::Transit {
                        mut pkt,
                        in_port,
                        chain,
                    } => {
                        let outcome = hop(
                            self.node,
                            &mut self.router,
                            &self.fib,
                            &mut self.covered_busy,
                            &self.cfg,
                            now,
                            &mut pkt,
                            in_port,
                        );
                        if let Some(t) = self.tele.as_deref_mut() {
                            let node_transit_s = self.cfg.node_transit_s;
                            t.col.transit_outcome(
                                &mut t.nc,
                                now,
                                self.node,
                                &pkt,
                                &outcome,
                                node_transit_s,
                            );
                        }
                        match outcome {
                            HopOutcome::Drop(cause) => self.drops[cause.index()] += 1,
                            HopOutcome::Deliver { delay_s } => {
                                let chain = self.arena.extend(chain, now);
                                self.push(now + delay_s, LpEvent::Deliver { pkt, chain });
                            }
                            HopOutcome::Forward { delay_s, out_port } => {
                                let chain = self.arena.extend(chain, now);
                                self.push(
                                    now + delay_s,
                                    LpEvent::Forward {
                                        pkt,
                                        out_port,
                                        chain,
                                    },
                                );
                            }
                        }
                    }
                    LpEvent::Forward {
                        pkt,
                        out_port,
                        chain,
                    } => {
                        let offer = self.links[out_port as usize].offer(
                            &self.cfg.link,
                            now,
                            self.cfg.packet_bytes,
                        );
                        if let Some(t) = self.tele.as_deref_mut() {
                            t.col
                                .forward_outcome(&mut t.nc, now, self.node, out_port, &pkt, &offer);
                        }
                        match offer {
                            LinkOffer::Down => self.drops[NetDropCause::LinkDown.index()] += 1,
                            LinkOffer::Congested => {
                                self.drops[NetDropCause::LinkCongested.index()] += 1;
                            }
                            LinkOffer::Sent { delay_s } => {
                                // Serialize `now` + the chain (most
                                // recent first) into the sidecar; the
                                // peer re-interns it on accept.
                                let chain_off = out.payload.len() as u32;
                                out.payload.push(now);
                                self.arena.serialize_into(chain, &mut out.payload);
                                let chain_len = out.payload.len() as u32 - chain_off;
                                out.send(
                                    self.peers[out_port as usize],
                                    now + delay_s,
                                    NetCross {
                                        pkt,
                                        in_port: self.peer_in_port[out_port as usize],
                                        chain_off,
                                        chain_len,
                                    },
                                );
                            }
                        }
                    }
                    LpEvent::Deliver { pkt, chain } => {
                        let chain_off = self.chain_store.len() as u32;
                        self.arena.serialize_into(chain, &mut self.chain_store);
                        let chain_len = self.chain_store.len() as u32 - chain_off;
                        self.deliveries.push(Delivery {
                            at: now,
                            latency_s: now - pkt.injected_at,
                            chain_off,
                            chain_len,
                            flow: pkt.flow,
                            hops: pkt.hops,
                        });
                        if let Some(t) = self.tele.as_deref_mut() {
                            t.col.delivered(&mut t.nc, now, self.node, &pkt);
                            if t.col.is_sampled(pkt.id) {
                                // Keep the materialized chain for the
                                // span-vs-provenance cross-check; the
                                // delivery's own copy is consumed by
                                // the stats replay.
                                let lo = chain_off as usize;
                                let hi = lo + chain_len as usize;
                                t.chains.push((pkt.id, self.chain_store[lo..hi].to_vec()));
                            }
                        }
                    }
                    LpEvent::Act(act) => match act {
                        LocalAct::Router(action) => {
                            self.router.advance_to(now);
                            self.router.apply(&action);
                        }
                        LocalAct::Link { port, up } => self.links[port as usize].set_up(up),
                    },
                }
            }
        }
        self.batch = batch;
        // Window barrier = epoch boundary: every live chain is
        // reachable from a pending queue event (cross messages were
        // interned on accept; delivered chains are already
        // materialized), so compaction relocates exactly those paths
        // and retires the rest.
        if self.arena.should_compact() {
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

    fn accept(&mut self, time: f64, msg: NetCross, payload: &Vec<f64>) {
        let lo = msg.chain_off as usize;
        let hi = lo + msg.chain_len as usize;
        let chain = self.arena.intern_recent_first(&payload[lo..hi]);
        self.push(
            time,
            LpEvent::Transit {
                pkt: msg.pkt,
                in_port: msg.in_port,
                chain,
            },
        );
    }

    fn next_time(&mut self) -> f64 {
        let staged = self
            .staged
            .get(self.next_staged)
            .map_or(f64::INFINITY, |s| s.0);
        self.queue.min_time().map_or(staged, |t| t.min(staged))
    }

    fn events_processed(&self) -> u64 {
        self.events
    }
}

/// Run `net` to `horizon` on `net.cfg.sim_threads` threads and return
/// the finished network (same shape [`NetworkSim::run`]'s serial
/// branch produces). Consumes a freshly built network: any statistics
/// already accumulated are discarded.
pub(crate) fn run_parallel(net: NetworkSim, seed: u64, horizon: f64) -> NetworkSim {
    assert!(
        horizon.is_finite() && horizon >= 0.0,
        "run_parallel: bad horizon {horizon}"
    );
    let threads = net.cfg.sim_threads.max(1);
    let NetworkSim {
        topo,
        fibs,
        nodes,
        links,
        covered_busy,
        flows,
        scenario,
        compiled,
        cfg,
        hop_budget,
        stats: _,
        next_pkt_id: _,
        mut tele,
    } = net;
    // Per-LP sampling density for the collectors installed below;
    // `None` keeps every hot-path hook a single never-taken branch.
    let lp_sample: Option<u64> = tele.as_ref().map(|t| t.sample_every());
    // Adaptive conservative lookahead: the minimum latency over the
    // links actually attached (uniform configs reproduce the old
    // global `link.latency_s` window exactly; heterogeneous ones get
    // the tightest safe width).
    let lookahead = links.min_latency().unwrap_or(cfg.link.latency_s);
    let n_flows = flows.len();
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

    // Exact-size the per-LP staging vectors up front: one allocation
    // each, no growth during the fill.
    let mut staged_counts = vec![0usize; topo.n_nodes()];
    for a in &arrivals {
        staged_counts[flows[a.flow as usize].src as usize] += 1;
    }
    let mut lps: Vec<NodeLp> = nodes
        .into_iter()
        .zip(fibs)
        .zip(links.into_per_node())
        .zip(covered_busy)
        .enumerate()
        .map(|(n, (((router, fib), links), covered_busy))| NodeLp {
            node: n as u32,
            cfg,
            router,
            fib,
            links,
            peers: topo.adj[n].clone(),
            peer_in_port: topo.rev_port[n].clone(),
            covered_busy,
            queue: CalendarQueue::new(),
            seq: 0,
            arena: ChainArena::new(),
            batch: Vec::new(),
            chain_store: Vec::new(),
            drops: [0; 8],
            deliveries: Vec::new(),
            staged: Vec::with_capacity(staged_counts[n]),
            next_staged: 0,
            tele: lp_sample.map(|s| Box::new(crate::telemetry::LpTele::new(s))),
            events: 0,
        })
        .collect();

    // Pre-insert scripted actions (scenario order, matching the serial
    // `Start` handler's scheduling order) using the precompiled
    // (node, port) resolutions, then arrivals (injection order).
    // Per-LP insertion order is the tie-break at equal times, exactly
    // as the serial kernel's scheduling sequence was.
    for ((at, _), act) in scenario.iter().zip(&compiled) {
        match act {
            CompiledNetAction::Router { node, action } => {
                lps[*node as usize].push(*at, LpEvent::Act(LocalAct::Router(action.clone())))
            }
            CompiledNetAction::Cable { a, pa, b, pb, up } => {
                lps[*a as usize].push(*at, LpEvent::Act(LocalAct::Link { port: *pa, up: *up }));
                lps[*b as usize].push(*at, LpEvent::Act(LocalAct::Link { port: *pb, up: *up }));
            }
        }
    }
    for a in &arrivals {
        let f = flows[a.flow as usize];
        let pkt = NetPacket {
            id: a.id,
            injected_at: a.at,
            flow: a.flow,
            dst: f.dst as u16,
            ttl: hop_budget,
            hops: 0,
        };
        let in_port = topo.host_port(f.src);
        lps[f.src as usize].stage(a.at, pkt, in_port);
    }
    // The precompute replays arrivals in serial event order, so each
    // LP's slice is already (time, seq)-sorted; the sort is a cheap
    // no-op guard for that invariant (keys are unique, so unstable is
    // deterministic, and sorting never changes which key pops when).
    for lp in &mut lps {
        lp.staged
            .sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    }

    // With a collector installed, profile the run (identical
    // simulation result) and fold the engine profile plus the per-LP
    // conservative-lookahead distribution into the non-deterministic
    // `profile` section.
    let mut prof = tele.as_ref().map(|_| PdesProfile::default());
    run_windows(&mut lps, lookahead, horizon, threads, prof.as_mut());
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
            // Each LP's own conservative bound: the minimum
            // latency over its attached outgoing links.
            let la = lp
                .links
                .iter()
                .map(|l| l.latency_s)
                .fold(f64::INFINITY, f64::min);
            let la = if la.is_finite() {
                la
            } else {
                cfg.link.latency_s
            };
            ep.lookahead_min_s = ep.lookahead_min_s.min(la);
            ep.lookahead_max_s = ep.lookahead_max_s.max(la);
            ep.lookahead_sum_s += la;
            ep.lookahead_lps += 1;
        }
        t.profile = Some(ep);
    }

    // Reassemble: counters sum, moments replay in delivery-time order,
    // the conservation ledger recomputes in-flight.
    let mut stats = NetStats::new(n_flows);
    stats.injected = arrivals.len() as u64;
    for a in &arrivals {
        stats.flow_injected[a.flow as usize] += 1;
    }
    let next_pkt_id = arrivals.len() as u64;
    PRECOMPUTE_POOL.with(|p| {
        let mut pool = p.borrow_mut();
        pool.0 = std::mem::take(&mut arrivals);
        pool.1 = std::mem::take(&mut pending);
    });
    let total_deliveries: usize = lps.iter().map(|lp| lp.deliveries.len()).sum();
    let mut fibs = Vec::with_capacity(lps.len());
    let mut nodes = Vec::with_capacity(lps.len());
    let mut per_node_links = Vec::with_capacity(lps.len());
    let mut covered_busy = Vec::with_capacity(lps.len());
    let mut chain_stores: Vec<Vec<f64>> = Vec::with_capacity(lps.len());
    // Pre-sized merge: one exact allocation, filled in node order.
    let mut deliveries: Vec<(u32, Delivery)> = Vec::with_capacity(total_deliveries);
    for (i, lp) in lps.into_iter().enumerate() {
        if let Some(lpt) = lp.tele {
            if let Some(t) = tele.as_deref_mut() {
                // LP-id order makes the fold order thread-invariant;
                // the export re-sorts every record canonically anyway.
                t.fold_lp(i, *lpt);
            }
        }
        for (acc, d) in stats.drops.iter_mut().zip(lp.drops) {
            *acc += d;
        }
        for d in lp.deliveries {
            deliveries.push((i as u32, d));
        }
        chain_stores.push(lp.chain_store);
        nodes.push(lp.router);
        fibs.push(lp.fib);
        per_node_links.push(lp.links);
        covered_busy.push(lp.covered_busy);
    }
    // Replay order: delivery time, then — on exact ties — provenance
    // order, the serial kernel's scheduling sequence (see the module
    // docs). The sort is stable and the concatenation is node-ordered,
    // so a full-chain tie (independent provenance, measure-zero) falls
    // back to a canonical (node, local order) key; DESIGN.md records
    // that residue as the determinism contract's fine print.
    let chain_of = |(lp, d): &(u32, Delivery)| -> &[f64] {
        &chain_stores[*lp as usize][d.chain_off as usize..(d.chain_off + d.chain_len) as usize]
    };
    deliveries.sort_by(|x, y| {
        x.1.at
            .total_cmp(&y.1.at)
            .then_with(|| chain_cmp_recent_first(chain_of(x), chain_of(y)))
    });
    for (_, d) in &deliveries {
        stats.delivered += 1;
        stats.flow_delivered[d.flow as usize] += 1;
        stats.latency.push(d.latency_s);
        stats.hops.push(d.hops as f64);
    }
    stats.in_flight = stats.injected - stats.delivered - stats.dropped_total();
    NetworkSim {
        topo,
        fibs,
        nodes,
        links: LinkArena::from_per_node(per_node_links.into_iter()),
        covered_busy,
        flows,
        scenario,
        compiled,
        cfg,
        hop_budget,
        stats,
        next_pkt_id,
        tele,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn precompute_arrivals(flows: &[Flow], stop_s: f64, horizon: f64, seed: u64) -> Vec<Arrival> {
        let mut out = Vec::new();
        let mut pending = Vec::new();
        precompute_arrivals_into(flows, stop_s, horizon, seed, &mut out, &mut pending);
        out
    }

    #[test]
    fn arrival_precompute_matches_serial_draws() {
        // Oracle: run the serial model with no faults on a healthy
        // 2-node-ish net is overkill here — instead check the
        // precompute's own invariants: times strictly ordered per
        // flow, ids dense in time order, stop/horizon respected.
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
}
