//! Conservative parallel discrete-event execution.
//!
//! The kernel in [`sim`](crate::sim) is strictly serial: one clock,
//! one queue. This module adds the classic conservative alternative
//! for models that decompose into **logical processes** (LPs) whose
//! only interaction is timestamped messages with a known minimum
//! latency (the *lookahead* `L`): advance every LP independently
//! through fixed barrier windows of width `L / 2`, exchanging the
//! cross-LP messages each window produced at the barrier.
//!
//! Why `L / 2` and not `L`: an event emitted at local time `t` inside
//! window `k` arrives at `t + L` at the earliest. With window width
//! `W = L / 2` the arrival lands at least a **full window** past the
//! end of window `k + 1`, so the safety argument needs only
//! `arrival > window_end` with a margin of `W` — immune to `f64`
//! rounding at the boundary — while still delivering every message
//! one barrier before the window that could consume it.
//!
//! `L` is a *global minimum*: per-LP-pair lookaheads may be larger
//! (heterogeneous link latencies), in which case those messages are
//! simply delivered **early** — more than one barrier before the
//! window that could consume them. Early delivery is always safe
//! because [`LogicalProcess::accept`] enqueues the message at its own
//! embedded timestamp; the consuming window pops it no sooner either
//! way.
//!
//! Determinism contract (the same discipline the campaign worker pool
//! and telemetry merge already follow): thread count never changes a
//! byte of the result. Three rules enforce it:
//!
//! 1. Windows are a pure function of `(lookahead, horizon)` — never of
//!    the thread count.
//! 2. Cross messages are tagged `(destination, source LP, emission
//!    index within the source's window)` and applied sorted by that
//!    key at the barrier, so the arrival order at any LP is
//!    independent of which thread ran which LP when.
//! 3. LPs are partitioned into contiguous index ranges, but because of
//!    rules 1–2 the partition shape is unobservable to the model.
//!
//! Equal-*timestamp* cross messages from **different** sources are
//! ordered by source id rather than by a global scheduling sequence
//! (which no longer exists); models whose distinct-provenance event
//! times are continuous random variables — every simulation in this
//! workspace — hit that case with probability zero. See
//! `DESIGN.md` for the full fine print.
//!
//! ## Payload sidecar
//!
//! Messages often reference bulk data (the network engine's
//! provenance chains) that would force a heap allocation per message
//! if carried inline. Each LP therefore publishes one
//! [`LogicalProcess::Payload`] value per window alongside its
//! messages — filled through [`Outbox::payload`] during the window,
//! readable (shared) by every receiver's `accept` at the barrier, and
//! handed back to its owner at the next window for reuse. Steady
//! state, the payload buffers cycle without allocating. Models that
//! don't need the sidecar use `Payload = ()`.

use std::sync::{Barrier, Mutex};
use std::time::Instant;

/// One logical process: a self-contained sub-simulation that can
/// advance to a time bound and absorb timestamped cross-LP messages.
pub trait LogicalProcess: Send {
    /// Message type carried between LPs (must embed its own timestamp;
    /// the executor never inspects it).
    type Cross: Send;

    /// Bulk data published once per LP per window alongside its
    /// messages (see the module docs). `Default` seeds the per-LP
    /// buffers; the executor recycles them across windows.
    type Payload: Send + Default;

    /// Advance local state, handling every pending local event with
    /// time ≤ `window_end`. Messages for other LPs — which must be
    /// timestamped at least one lookahead after the emitting event —
    /// go into `out`; any bulk data they reference goes into
    /// [`Outbox::payload`] (stale contents from this LP's previous
    /// window — clear before use).
    fn advance_window(&mut self, window_end: f64, out: &mut Outbox<Self::Cross, Self::Payload>);

    /// Absorb one cross message (enqueue it as a local future event).
    /// Called only between windows, in deterministic `(source,
    /// emission-index)` order; `payload` is the sending LP's sidecar
    /// for the window that emitted `msg`.
    fn accept(&mut self, msg: Self::Cross, payload: &Self::Payload);

    /// Cumulative count of local events this LP has processed, read by
    /// the engine profiler between windows to attribute load. The
    /// default `0` keeps models that don't track it working — their
    /// profiles simply report empty load columns.
    fn events_processed(&self) -> u64 {
        0
    }
}

/// Collector for cross-LP messages emitted during one LP's window.
pub struct Outbox<C, P> {
    events: Vec<(u32, C)>,
    /// The emitting LP's payload sidecar for this window (recycled
    /// storage from its own earlier windows; contents are stale until
    /// the LP resets them).
    pub payload: P,
}

impl<C, P: Default> Outbox<C, P> {
    fn new() -> Self {
        Outbox {
            events: Vec::new(),
            payload: P::default(),
        }
    }

    /// Emit `msg` toward LP `dst`.
    pub fn send(&mut self, dst: u32, msg: C) {
        self.events.push((dst, msg));
    }

    /// Messages emitted so far in this window.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been emitted this window.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// A cross message in transit between windows, tagged with its
/// deterministic merge key.
struct Tagged<C> {
    dst: u32,
    src: u32,
    idx: u32,
    msg: C,
}

/// Summary of one windowed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowReport {
    /// Barrier windows executed.
    pub windows: u64,
    /// Cross-LP messages exchanged.
    pub cross_messages: u64,
}

/// Engine profile from one profiled [`run_windows`] call.
///
/// **Non-deterministic**: the `*_ns` fields are wall-clock, so two
/// runs of the same model differ. The event counts are deterministic
/// (they restate what the LPs did), but consumers must keep the whole
/// profile out of any byte-compared artifact section — that is the
/// deterministic-vs-`profile` contract documented in DESIGN.md.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PdesProfile {
    /// Worker threads actually used (after clamping).
    pub threads: usize,
    /// Barrier windows executed.
    pub windows: u64,
    /// Cross-LP messages exchanged.
    pub cross_messages: u64,
    /// Wall-clock of the whole windowed run, nanoseconds.
    pub wall_ns: u64,
    /// Wall-clock all threads spent blocked in `Barrier::wait`,
    /// nanoseconds, summed across threads (a run with zero imbalance
    /// still pays two waits per window for the convoy itself).
    pub barrier_wait_ns: u64,
    /// Events processed per LP, LP-id order (via
    /// [`LogicalProcess::events_processed`]).
    pub lp_events: Vec<u64>,
    /// Windows in which each LP processed at least one event.
    pub lp_busy_windows: Vec<u64>,
    /// Windows in which at least one LP processed an event.
    pub nonempty_windows: u64,
    /// Sum over windows of the busiest LP's event count in that
    /// window — the critical-path event count under perfect balance;
    /// compare against `lp_events.sum() / threads`.
    pub window_max_events_sum: u64,
}

/// Advance `lps` to `horizon` on `threads` scoped threads using
/// conservative barrier windows of width `lookahead / 2`.
///
/// The result is byte-identical at every `threads` value (see the
/// module docs for the contract). `threads` is clamped to
/// `[1, lps.len()]`, and — because the contract makes the worker
/// count unobservable — also to the host's available parallelism:
/// spawning more workers than cores adds barrier-scheduling overhead
/// (two futex convoys per window) without any concurrency in return,
/// so an oversubscribed request silently runs at the widest useful
/// width instead.
///
/// With `profile`, the run also fills it with per-LP load, per-window
/// occupancy, and barrier-stall wall-clock (replacing its previous
/// contents). Profiling reads wall-clocks and takes one extra lock per
/// thread per window, so a profiled run is marginally slower, but its
/// simulation result is byte-identical to an unprofiled one.
///
/// # Panics
/// Panics if `lookahead` or `horizon` is non-positive or non-finite.
/// A panic inside any LP propagates after all threads join.
pub fn run_windows<L: LogicalProcess>(
    lps: &mut [L],
    lookahead: f64,
    horizon: f64,
    threads: usize,
    profile: Option<&mut PdesProfile>,
) -> WindowReport {
    assert!(
        lookahead > 0.0 && lookahead.is_finite(),
        "run_windows: lookahead must be positive and finite, got {lookahead}"
    );
    assert!(
        horizon >= 0.0 && horizon.is_finite(),
        "run_windows: horizon must be nonnegative and finite, got {horizon}"
    );
    if lps.is_empty() {
        if let Some(p) = profile {
            *p = PdesProfile::default();
        }
        return WindowReport {
            windows: 0,
            cross_messages: 0,
        };
    }
    let width = lookahead / 2.0;
    // Enough windows that the last boundary clamps to exactly
    // `horizon`; at least one so t = 0 events run even at horizon 0.
    let n_windows = ((horizon / width).ceil() as u64).max(1);
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(usize::MAX);
    let threads = threads.clamp(1, lps.len()).min(cores);
    let n_lps = lps.len();

    // Contiguous LP ranges per thread (the shape is unobservable —
    // see the module docs — so a simple even split suffices).
    let bound = |t: usize| t * n_lps / threads;
    let mut chunks: Vec<(usize, &mut [L])> = Vec::with_capacity(threads);
    let mut rest = &mut *lps;
    for t in 0..threads {
        let take = bound(t + 1) - bound(t);
        let (head, tail) = rest.split_at_mut(take);
        chunks.push((bound(t), head));
        rest = tail;
    }

    let barrier = Barrier::new(threads);
    let slots: Vec<Mutex<Vec<Tagged<L::Cross>>>> =
        (0..threads).map(|_| Mutex::new(Vec::new())).collect();
    // One payload slot per LP: written by its owner in phase 1, read
    // (shared, under the per-slot lock) by receivers in phase 2, and
    // reclaimed by the owner at its next phase 1 — so each buffer
    // cycles owner → readers → owner without ever allocating again.
    let payloads: Vec<Mutex<L::Payload>> = (0..n_lps)
        .map(|_| Mutex::new(L::Payload::default()))
        .collect();
    let crossings = Mutex::new(0u64);
    // Profiling accumulators: shared per-window (events sum, max LP
    // events) merged under one lock, per-LP busy-window counts, and
    // the summed barrier-stall clock. All untouched when not
    // profiling, so the unprofiled hot loop pays one branch per
    // window and nothing else.
    let profiling = profile.is_some();
    let win_stats: Mutex<Vec<(u64, u64)>> = Mutex::new(if profiling {
        vec![(0, 0); n_windows as usize]
    } else {
        Vec::new()
    });
    let busy: Mutex<Vec<u64>> = Mutex::new(if profiling {
        vec![0; n_lps]
    } else {
        Vec::new()
    });
    let barrier_ns = Mutex::new(0u64);
    let wall_start = Instant::now();

    std::thread::scope(|scope| {
        for (tid, (base, chunk)) in chunks.into_iter().enumerate() {
            let barrier = &barrier;
            let slots = &slots;
            let payloads = &payloads;
            let crossings = &crossings;
            let win_stats = &win_stats;
            let busy = &busy;
            let barrier_ns = &barrier_ns;
            scope.spawn(move || {
                let mut outbox = Outbox::new();
                let mut published = 0u64;
                // Profiling locals: previous cumulative event count
                // per chunk LP (for per-window deltas), per-LP busy
                // windows, and this thread's barrier-stall clock.
                let mut prev: Vec<u64> = if profiling {
                    chunk.iter().map(|lp| lp.events_processed()).collect()
                } else {
                    Vec::new()
                };
                let mut busy_local: Vec<u64> = vec![0; prev.len()];
                let mut wait_ns = 0u64;
                // Staging buffers live across windows: steady state,
                // a window reuses the high-water capacity of earlier
                // ones instead of reallocating per barrier.
                let mut outgoing: Vec<Tagged<L::Cross>> = Vec::new();
                let mut incoming: Vec<Tagged<L::Cross>> = Vec::new();
                for k in 0..n_windows {
                    let end = (width * (k + 1) as f64).min(horizon);
                    // Phase 1: every LP in this chunk advances through
                    // the window, tagging emissions with (src, idx).
                    for (j, lp) in chunk.iter_mut().enumerate() {
                        let g = base + j;
                        {
                            let mut slot = payloads[g].lock().expect("payload slot lock");
                            outbox.payload = std::mem::take(&mut *slot);
                        }
                        lp.advance_window(end, &mut outbox);
                        for (idx, (dst, msg)) in outbox.events.drain(..).enumerate() {
                            debug_assert!((dst as usize) < n_lps, "outbox dst {dst} out of range");
                            outgoing.push(Tagged {
                                dst,
                                src: g as u32,
                                idx: idx as u32,
                                msg,
                            });
                        }
                        {
                            let mut slot = payloads[g].lock().expect("payload slot lock");
                            *slot = std::mem::take(&mut outbox.payload);
                        }
                    }
                    if profiling {
                        let mut sum = 0u64;
                        let mut mx = 0u64;
                        for (j, lp) in chunk.iter().enumerate() {
                            let e = lp.events_processed();
                            let d = e - prev[j];
                            prev[j] = e;
                            if d > 0 {
                                busy_local[j] += 1;
                            }
                            sum += d;
                            mx = mx.max(d);
                        }
                        if sum > 0 {
                            let mut ws = win_stats.lock().expect("window stats lock");
                            let slot = &mut ws[k as usize];
                            slot.0 += sum;
                            slot.1 = slot.1.max(mx);
                        }
                    }
                    published += outgoing.len() as u64;
                    if !outgoing.is_empty() {
                        slots[tid]
                            .lock()
                            .expect("outbox slot lock")
                            .append(&mut outgoing);
                    }
                    if profiling {
                        let t0 = Instant::now();
                        barrier.wait();
                        wait_ns += t0.elapsed().as_nanos() as u64;
                    } else {
                        barrier.wait();
                    }
                    // Phase 2: claim the messages addressed to this
                    // chunk and apply them in (dst, src, idx) order —
                    // a key no thread schedule can perturb. Payload
                    // slots are only read in this phase; owners
                    // reclaim them after the next barrier.
                    let lo = base as u32;
                    let hi = (base + chunk.len()) as u32;
                    for slot in slots.iter() {
                        let mut guard = slot.lock().expect("outbox slot lock");
                        let mut i = 0;
                        while i < guard.len() {
                            if (lo..hi).contains(&guard[i].dst) {
                                incoming.push(guard.swap_remove(i));
                            } else {
                                i += 1;
                            }
                        }
                    }
                    // Unstable sort: the key is unique (one idx per
                    // src emission), so the order is total — and the
                    // unstable algorithm never allocates, keeping the
                    // steady-state barrier heap-free.
                    incoming.sort_unstable_by_key(|t| (t.dst, t.src, t.idx));
                    for t in incoming.drain(..) {
                        let payload = payloads[t.src as usize].lock().expect("payload slot lock");
                        chunk[t.dst as usize - base].accept(t.msg, &payload);
                    }
                    // Phase 3: nobody republishes into a slot another
                    // thread may still be scanning.
                    if profiling {
                        let t0 = Instant::now();
                        barrier.wait();
                        wait_ns += t0.elapsed().as_nanos() as u64;
                    } else {
                        barrier.wait();
                    }
                }
                *crossings.lock().expect("crossing counter") += published;
                if profiling {
                    *barrier_ns.lock().expect("barrier clock") += wait_ns;
                    let mut b = busy.lock().expect("busy windows lock");
                    for (j, v) in busy_local.iter().enumerate() {
                        b[base + j] = *v;
                    }
                }
            });
        }
    });

    let cross_messages = crossings.into_inner().expect("crossing counter");
    if let Some(p) = profile {
        p.threads = threads;
        p.windows = n_windows;
        p.cross_messages = cross_messages;
        p.wall_ns = wall_start.elapsed().as_nanos() as u64;
        p.barrier_wait_ns = barrier_ns.into_inner().expect("barrier clock");
        p.lp_events = lps.iter().map(|lp| lp.events_processed()).collect();
        p.lp_busy_windows = busy.into_inner().expect("busy windows lock");
        let ws = win_stats.into_inner().expect("window stats lock");
        p.nonempty_windows = ws.iter().filter(|w| w.0 > 0).count() as u64;
        p.window_max_events_sum = ws.iter().map(|w| w.1).sum();
    }

    WindowReport {
        windows: n_windows,
        cross_messages,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calendar::CalendarQueue;

    /// Toy LP: a node on a ring that bounces tokens onward with a
    /// fixed per-hop delay and records every arrival it sees.
    struct RingNode {
        id: u32,
        n: u32,
        hop_delay: f64,
        queue: CalendarQueue<u64>,
        seq: u64,
        log: Vec<(u64, f64, u64)>, // (token, time, local order)
    }

    impl RingNode {
        fn new(id: u32, n: u32, hop_delay: f64) -> Self {
            RingNode {
                id,
                n,
                hop_delay,
                queue: CalendarQueue::new(),
                seq: 0,
                log: Vec::new(),
            }
        }

        fn push(&mut self, time: f64, token: u64) {
            let seq = self.seq;
            self.seq += 1;
            self.queue.push(time, seq, token);
        }
    }

    impl LogicalProcess for RingNode {
        type Cross = (f64, u64);
        type Payload = ();

        fn advance_window(&mut self, window_end: f64, out: &mut Outbox<(f64, u64), ()>) {
            while let Some((t, _seq, token)) = self.queue.pop_at_or_before(window_end) {
                let order = self.log.len() as u64;
                self.log.push((token, t, order));
                out.send((self.id + 1) % self.n, (t + self.hop_delay, token));
            }
        }

        fn accept(&mut self, (t, token): (f64, u64), _payload: &()) {
            self.push(t, token);
        }

        fn events_processed(&self) -> u64 {
            self.log.len() as u64
        }
    }

    fn run_ring(n: u32, tokens: u64, threads: usize) -> Vec<Vec<(u64, f64, u64)>> {
        let hop = 1e-3;
        let mut lps: Vec<RingNode> = (0..n).map(|i| RingNode::new(i, n, hop)).collect();
        for tok in 0..tokens {
            // Stagger starts so several tokens circulate at once.
            lps[(tok % n as u64) as usize].push(tok as f64 * 1e-4, tok);
        }
        let report = run_windows(&mut lps, hop, 50e-3, threads, None);
        assert!(report.windows >= 1);
        assert!(report.cross_messages > 0);
        lps.into_iter().map(|lp| lp.log).collect()
    }

    #[test]
    fn ring_is_thread_count_invariant() {
        let oracle = run_ring(8, 5, 1);
        for threads in [2, 3, 4, 8] {
            assert_eq!(run_ring(8, 5, threads), oracle, "threads = {threads}");
        }
    }

    #[test]
    fn ring_conserves_and_orders_tokens() {
        let logs = run_ring(4, 2, 2);
        let total: usize = logs.iter().map(Vec::len).sum();
        // Each token takes one hop per ms over 50 ms.
        assert!(total >= 90, "expected ~100 arrivals, got {total}");
        for log in &logs {
            for pair in log.windows(2) {
                assert!(pair[0].1 <= pair[1].1, "arrivals out of time order");
            }
        }
    }

    #[test]
    fn same_time_messages_merge_by_source_id() {
        // Every node fires one message at the *same* timestamp into
        // node 0; the accept order at node 0 must be by source id
        // regardless of thread count.
        struct Sink {
            id: u32,
            queue: CalendarQueue<u32>,
            seq: u64,
            fired: bool,
            seen: Vec<u32>,
        }
        impl LogicalProcess for Sink {
            type Cross = (f64, u32);
            type Payload = ();
            fn advance_window(&mut self, end: f64, out: &mut Outbox<(f64, u32), ()>) {
                if !self.fired && end >= 0.0 {
                    self.fired = true;
                    if self.id != 0 {
                        out.send(0, (5e-3, self.id));
                    }
                }
                while let Some((_t, _s, src)) = self.queue.pop_at_or_before(end) {
                    self.seen.push(src);
                }
            }
            fn accept(&mut self, (t, src): (f64, u32), _payload: &()) {
                let seq = self.seq;
                self.seq += 1;
                self.queue.push(t, seq, src);
            }
        }
        for threads in [1, 2, 5] {
            let mut lps: Vec<Sink> = (0..5)
                .map(|id| Sink {
                    id,
                    queue: CalendarQueue::new(),
                    seq: 0,
                    fired: false,
                    seen: Vec::new(),
                })
                .collect();
            run_windows(&mut lps, 2e-3, 10e-3, threads, None);
            assert_eq!(lps[0].seen, vec![1, 2, 3, 4], "threads = {threads}");
        }
    }

    #[test]
    fn payload_sidecar_travels_with_messages_and_recycles() {
        // Each node publishes a window payload holding the squares of
        // the tokens it forwarded; receivers check the referenced slot
        // matches the message. Exercises owner → reader → owner
        // buffer cycling across many windows and thread counts.
        struct PayloadNode {
            id: u32,
            n: u32,
            queue: CalendarQueue<u64>,
            seq: u64,
            checked: u64,
        }
        impl LogicalProcess for PayloadNode {
            type Cross = (f64, u64, u32); // (time, token, payload index)
            type Payload = Vec<u64>;
            fn advance_window(&mut self, end: f64, out: &mut Outbox<Self::Cross, Vec<u64>>) {
                out.payload.clear();
                while let Some((t, _s, token)) = self.queue.pop_at_or_before(end) {
                    let idx = out.payload.len() as u32;
                    out.payload.push(token * token);
                    out.send((self.id + 1) % self.n, (t + 1e-3, token, idx));
                }
            }
            fn accept(&mut self, (t, token, idx): Self::Cross, payload: &Vec<u64>) {
                assert_eq!(payload[idx as usize], token * token, "payload mismatch");
                self.checked += 1;
                let seq = self.seq;
                self.seq += 1;
                self.queue.push(t, seq, token);
            }
        }
        for threads in [1, 2, 4] {
            let mut lps: Vec<PayloadNode> = (0..4)
                .map(|id| PayloadNode {
                    id,
                    n: 4,
                    queue: CalendarQueue::new(),
                    seq: 0,
                    checked: 0,
                })
                .collect();
            for tok in 0..6u64 {
                let seq = lps[(tok % 4) as usize].seq;
                lps[(tok % 4) as usize].seq = seq + 1;
                let t = tok as f64 * 1e-4;
                lps[(tok % 4) as usize].queue.push(t, seq, tok);
            }
            run_windows(&mut lps, 1e-3, 30e-3, threads, None);
            let total: u64 = lps.iter().map(|lp| lp.checked).sum();
            assert!(total > 100, "threads={threads}: only {total} checks");
        }
    }

    #[test]
    fn profiled_run_matches_oracle_and_accounts_load() {
        let oracle = run_ring(8, 5, 1);
        for threads in [1, 2, 4] {
            let hop = 1e-3;
            let mut lps: Vec<RingNode> = (0..8).map(|i| RingNode::new(i, 8, hop)).collect();
            for tok in 0..5u64 {
                lps[(tok % 8) as usize].push(tok as f64 * 1e-4, tok);
            }
            let mut profile = PdesProfile::default();
            let report = run_windows(&mut lps, hop, 50e-3, threads, Some(&mut profile));
            // Profiling must not perturb the simulation.
            let logs: Vec<_> = lps.into_iter().map(|lp| lp.log).collect();
            assert_eq!(logs, oracle, "threads = {threads}");
            // The profile restates what the LPs did.
            assert_eq!(profile.windows, report.windows);
            assert_eq!(profile.cross_messages, report.cross_messages);
            assert_eq!(profile.lp_events.len(), 8);
            let total: u64 = profile.lp_events.iter().sum();
            let expected: u64 = logs.iter().map(|l| l.len() as u64).sum();
            assert_eq!(total, expected);
            assert!(profile.nonempty_windows > 0);
            assert!(profile.nonempty_windows <= profile.windows);
            // Each window's max ≥ its mean share, so the sum of maxes
            // bounds total/lps from above.
            assert!(profile.window_max_events_sum >= total / 8);
            assert!(profile.window_max_events_sum <= total);
            assert!(profile
                .lp_busy_windows
                .iter()
                .all(|&b| b <= profile.windows));
            let busy_total: u64 = profile.lp_busy_windows.iter().sum();
            assert!(busy_total > 0);
            assert!(profile.wall_ns > 0);
            assert!(profile.threads <= 8);
        }
    }

    #[test]
    fn profile_resets_between_runs() {
        let mut profile = PdesProfile {
            lp_events: vec![99; 4],
            windows: 123,
            ..PdesProfile::default()
        };
        let mut none: Vec<RingNode> = Vec::new();
        run_windows(&mut none, 1.0, 1.0, 2, Some(&mut profile));
        assert_eq!(profile, PdesProfile::default());
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        let mut none: Vec<RingNode> = Vec::new();
        let r = run_windows(&mut none, 1.0, 1.0, 4, None);
        assert_eq!(r.windows, 0);
        // Horizon 0 still runs one window so t = 0 events fire.
        let mut one = vec![RingNode::new(0, 1, 1.0)];
        one[0].push(0.0, 9);
        let r = run_windows(&mut one, 1.0, 0.0, 3, None);
        assert_eq!(r.windows, 1);
        assert_eq!(one[0].log.len(), 1);
    }
}
