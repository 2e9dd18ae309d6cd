//! Conservative parallel discrete-event execution.
//!
//! The kernel in [`sim`](crate::sim) is strictly serial: one clock,
//! one queue. This module adds the classic conservative alternative
//! for models that decompose into **logical processes** (LPs) whose
//! only interaction is timestamped messages with a known minimum
//! latency (the *lookahead* `L`): advance every LP independently
//! through barrier windows, exchanging the cross-LP messages each
//! window produced at the barrier that ends it.
//!
//! ## Windows
//!
//! Window `k` starts at `m_k`, the global lower bound on every time
//! still to be processed: the minimum over every LP's earliest pending
//! event ([`LogicalProcess::next_time`]) and every cross message still
//! in transit. It spans the full lookahead, ending at
//! `end_k = next_down(m_k + L)` (clamped to `horizon`, which is
//! inclusive), and the run stops once `m_k > horizon`. Idle stretches
//! therefore cost nothing: a gap of any length between two bursts of
//! activity is crossed in one step (the conservative "YAWNS" window,
//! Nicol 1993).
//!
//! Safety rests on `f64` rounding being monotone. Every event a window
//! processes has time `t ≥ m`, and a cross message it emits travels
//! over a link of latency `≥ L`, so its stamp is `≥ fl(m + L)`, which
//! is strictly greater than `end = next_down(fl(m + L))`. No message
//! can land inside the window that emitted it. The engine does not
//! take this on trust: after each LP's window it asserts that the
//! earliest stamp the LP emitted ([`Outbox::send`] records each one)
//! is past `end`, and it asserts `end ≥ m`, so a lookahead below the
//! rounding resolution at `m` fails loudly instead of spinning.
//!
//! `L` is a *global minimum*: per-LP-pair lookaheads may be larger
//! (heterogeneous link latencies), in which case those messages are
//! simply delivered **early** — more than one barrier before the
//! window that could consume them. Early delivery is always safe
//! because [`LogicalProcess::accept`] enqueues the message at its own
//! timestamp; the consuming window pops it no sooner either way.
//!
//! ## One barrier per window
//!
//! Each thread publishes, per window, its outgoing messages, one
//! payload sidecar per LP (below) and its local lower bound (the
//! minimum of its LPs' `next_time` and its emitted stamps). All three
//! are **parity-buffered**: window `k` writes buffer `(k + 1) % 2` and
//! reads buffer `k % 2`. A single barrier ends the window (a
//! spin-then-park generation barrier, below); after it
//! every thread reduces the same published minima to the same
//! `m_{k+1}` (so every thread takes the same stop decision) and, unless
//! the run is over, accepts the messages addressed to its LPs. A
//! buffer written in window `k` is not written again before window
//! `k + 2`, which starts only after the next barrier, by which time
//! every thread has finished reading it — so no thread writes storage
//! another may still be reading. Messages stamped past the horizon are
//! never accepted.
//!
//! ## Determinism contract
//!
//! The same discipline the campaign worker pool and telemetry merge
//! already follow: thread count never changes a byte of the result.
//! Three rules enforce it:
//!
//! 1. Windows are a function of the model state at each barrier
//!    (`m_k` is an exact minimum, which no reduction order can
//!    perturb), and that state is itself thread-invariant by
//!    induction over rules 1–2 — never a function of the thread count.
//! 2. Cross messages are tagged `(destination, source LP, emission
//!    index within the source's window)` and applied sorted by that
//!    key at the barrier, so the arrival order at any LP is
//!    independent of which thread ran which LP when.
//! 3. LPs are assigned to threads in contiguous index ranges, but
//!    because of rules 1–2 the assignment is unobservable to the
//!    model.
//!
//! The accept order is a function of the *LP decomposition* (source LP
//! ids), not of the threads. A model whose result must also be
//! independent of how it is cut into LPs carries a total order in its
//! messages and orders its own queue by it, as the network engine does
//! (`dra_topo::pdes`).
//!
//! ## Payload sidecar
//!
//! Messages often reference bulk data (the network engine's
//! provenance chains) that would force a heap allocation per message
//! if carried inline. Each LP therefore publishes one
//! [`LogicalProcess::Payload`] value per window alongside its
//! messages — filled through [`Outbox::payload`] during the window,
//! readable (shared) by every receiver's `accept` after the barrier,
//! and handed back to its owner two windows later (one buffer per
//! parity) for reuse. Steady state, the payload buffers cycle without
//! allocating. Models that don't need the sidecar use `Payload = ()`.
//!
//! ## What a window costs across cores
//!
//! A window is short (the network engine runs ~70 events per group per
//! window), so what the threads share, they share tens of thousands of
//! times a second. The engine keeps that to the exchange itself:
//!
//! - **Cache isolation.** *Storage that different threads write must
//!   not share a cache line.* Each per-thread bulletin, each
//!   (sender, receiver) message slot, each per-LP payload slot and the
//!   barrier sit in their own `CachePadded` cell, and a model's LP type
//!   carries `#[repr(align(128))]` (checked by a `const` assert beside
//!   it against [`CACHE_ISOLATION`]), because adjacent LPs of one slice
//!   run on different threads and write their own fields on every
//!   event. 128 bytes, not 64: Intel's adjacent-line prefetcher pulls
//!   lines in aligned pairs. A field added to or reordered inside those
//!   types then cannot bring false sharing back.
//! - **A spin-then-park barrier.** `WindowBarrier` spins
//!   `BARRIER_SPINS` iterations on a generation counter, then parks on
//!   a condvar, so a balanced window crosses the barrier without a
//!   futex round trip and an idle thread still sleeps.
//! - **No oversubscription.** A spinning waiter on a core its peer
//!   needs burns that peer's time slice, so the engine never runs more
//!   threads than cores: [`effective_threads`] clamps one run, and
//!   [`sweep_engine_threads`] clamps a sweep whose cells run
//!   concurrently on a worker pool.

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// Alignment, in bytes, that keeps storage written by different
/// threads on separate cache lines: two 64-byte lines, since the
/// adjacent-line prefetcher fetches lines in aligned pairs.
pub const CACHE_ISOLATION: usize = 128;

/// `T` on cache lines of its own (see the module docs): aligned to
/// [`CACHE_ISOLATION`] bytes and padded to a multiple of it, so no
/// neighbour in a slice or struct shares its lines.
#[derive(Default)]
#[repr(align(128))]
struct CachePadded<T>(T);

const _: () = assert!(std::mem::align_of::<CachePadded<u8>>() == CACHE_ISOLATION);

impl<T> Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

/// Iterations a [`WindowBarrier`] waiter spins on the generation before
/// it parks. One iteration is a load and a spin-loop hint, ~22 ns on a
/// 2-core Xeon VM, so the budget is ~90 µs: several typical windows
/// (the network engine's average ~11 µs), so a balanced crossing never
/// parks, yet short enough that a waiter whose peer is descheduled
/// gives its core back quickly.
const BARRIER_SPINS: u32 = 1 << 12;

/// A reusable barrier for a fixed number of threads: the last thread to
/// arrive bumps a generation counter, and the others spin on it for
/// [`BARRIER_SPINS`] iterations, then park on a condvar.
///
/// The last arriver notifies only when some waiter is parked. The
/// generation and the sleeper count are both `SeqCst`, which is what
/// rules out a lost wakeup: a waiter registers as a sleeper and then
/// re-reads the generation under the lock, the last arriver publishes
/// the generation and then reads the sleeper count, so in the single
/// `SeqCst` order either the waiter sees the new generation or the
/// last arriver sees the sleeper (and notifies under the lock, which
/// the sleeper holds until it is waiting on the condvar).
///
/// Every write a thread makes before [`wait`](Self::wait) is visible to
/// every thread after it returns: arrivals are `AcqRel` read-modify-
/// writes, so the last arriver acquires them all before it releases
/// the new generation that the others acquire.
struct WindowBarrier {
    threads: usize,
    arrived: AtomicUsize,
    generation: AtomicU64,
    sleepers: AtomicUsize,
    lock: Mutex<()>,
    wake: Condvar,
}

impl WindowBarrier {
    /// A barrier for `threads` threads (at least 1).
    fn new(threads: usize) -> Self {
        WindowBarrier {
            threads,
            arrived: AtomicUsize::new(0),
            generation: AtomicU64::new(0),
            sleepers: AtomicUsize::new(0),
            lock: Mutex::new(()),
            wake: Condvar::new(),
        }
    }

    /// Block until all `threads` threads have called `wait` for this
    /// generation; returns the generation just opened (1 for the first
    /// crossing, then 2, 3, … — the same sequence on every thread).
    ///
    /// The lock guards no data, so a poisoned lock is taken as is: a
    /// panicking worker must still get through here (see
    /// `ReleaseOnPanic`).
    fn wait(&self) -> u64 {
        // Read before arriving: the generation cannot move until this
        // thread has arrived.
        let gen = self.generation.load(Ordering::SeqCst);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.threads {
            // Nobody arrives again before seeing the new generation, so
            // the reset is ordered before every next-generation arrival.
            self.arrived.store(0, Ordering::Relaxed);
            self.generation.store(gen + 1, Ordering::SeqCst);
            if self.sleepers.load(Ordering::SeqCst) > 0 {
                let _guard = self.lock.lock().unwrap_or_else(|e| e.into_inner());
                self.wake.notify_all();
            }
            return gen + 1;
        }
        for _ in 0..BARRIER_SPINS {
            if self.generation.load(Ordering::Acquire) != gen {
                return gen + 1;
            }
            std::hint::spin_loop();
        }
        let mut guard = self.lock.lock().unwrap_or_else(|e| e.into_inner());
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        while self.generation.load(Ordering::SeqCst) == gen {
            guard = self.wake.wait(guard).unwrap_or_else(|e| e.into_inner());
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
        gen + 1
    }
}

/// One logical process: a self-contained sub-simulation that can
/// advance to a time bound and absorb timestamped cross-LP messages.
pub trait LogicalProcess: Send {
    /// Message type carried between LPs (its timestamp travels beside
    /// it: given to [`Outbox::send`], handed back to `accept`).
    type Cross: Send;

    /// Bulk data published once per LP per window alongside its
    /// messages (see the module docs). `Default` seeds the per-LP
    /// buffers; the executor recycles them across windows.
    type Payload: Send + Default;

    /// Advance local state, handling every pending local event with
    /// time ≤ `window_end`. Messages for other LPs — which must be
    /// timestamped at least one lookahead after the emitting event —
    /// go into `out`; any bulk data they reference goes into
    /// [`Outbox::payload`] (stale contents from this LP's window two
    /// barriers ago — clear before use).
    fn advance_window(&mut self, window_end: f64, out: &mut Outbox<Self::Cross, Self::Payload>);

    /// Absorb one cross message stamped `time` (enqueue it as a local
    /// future event). Called only between windows, in deterministic
    /// `(source, emission-index)` order; `payload` is the sending LP's
    /// sidecar for the window that emitted `msg`.
    fn accept(&mut self, time: f64, msg: Self::Cross, payload: &Self::Payload);

    /// Time of this LP's earliest pending local event, `f64::INFINITY`
    /// when it has none. Read before the first window and after each
    /// window to place the next one; an event earlier than the answer
    /// must not exist, or the window that should have processed it may
    /// already be past.
    fn next_time(&mut self) -> f64;

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
    events: Vec<(u32, f64, C)>,
    /// Earliest stamp sent this window (`INFINITY` when none).
    min_time: f64,
    /// The emitting LP's payload sidecar for this window (recycled
    /// storage from its own earlier windows; contents are stale until
    /// the LP resets them).
    pub payload: P,
}

impl<C, P: Default> Outbox<C, P> {
    fn new() -> Self {
        Outbox {
            events: Vec::new(),
            min_time: f64::INFINITY,
            payload: P::default(),
        }
    }

    /// Emit `msg` toward LP `dst`, to be accepted there at `time`.
    pub fn send(&mut self, dst: u32, time: f64, msg: C) {
        self.min_time = self.min_time.min(time);
        self.events.push((dst, time, msg));
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
    time: f64,
    dst: u32,
    src: u32,
    idx: u32,
    msg: C,
}

/// One (sender thread, receiver thread) message queue.
type Slot<C> = CachePadded<Mutex<Vec<Tagged<C>>>>;

/// What one thread publishes per window, read by every thread after
/// the barrier: its local lower bound (`f64` bits) and, when
/// profiling, its window's event sum and busiest-LP event count.
/// `Relaxed` suffices for these and for the failure flag: every store
/// precedes the writer's [`WindowBarrier::wait`] and every load
/// follows the reader's, and the barrier orders the two.
#[derive(Default)]
struct Bulletin {
    min: AtomicU64,
    events: AtomicU64,
    max_events: AtomicU64,
}

/// One thread's totals, returned when it joins.
#[derive(Default)]
struct ThreadTally {
    windows: u64,
    published: u64,
    wait_ns: u64,
    nonempty_windows: u64,
    window_max_events_sum: u64,
    busy: Vec<u64>,
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
    /// Wall-clock all threads spent in the window barrier,
    /// nanoseconds, summed across threads (a run with zero imbalance
    /// still pays one wait per window for the convoy itself).
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

/// The host's available parallelism (`usize::MAX` when unknown).
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(usize::MAX, |n| n.get())
}

/// Worker threads a request for `requested` threads over `n_lps` LPs
/// actually gets: at least 1, at most one per LP, and at most the
/// host's available parallelism. Because the determinism contract
/// makes the worker count unobservable, spawning more workers than
/// cores would add barrier overhead (spinning waiters starve the
/// threads they wait for) without any concurrency in return, so an
/// oversubscribed request runs at the widest useful width instead.
/// [`run_windows`] applies exactly this clamp; callers that report a
/// thread count use it too.
pub fn effective_threads(requested: usize, n_lps: usize) -> usize {
    requested.clamp(1, n_lps.max(1)).min(host_cores())
}

/// Engine width for each cell of a sweep that runs `cells` cells on a
/// pool of `workers` threads over `cores` cores: `requested`, cut so
/// that the cells in flight at once, `min(workers, cells)`, times the
/// width never exceeds `cores`, and at least 1. A width of 1 runs no
/// barrier, so a pool that alone fills (or oversubscribes) the cores
/// runs every cell as one LP group. Like the thread count, the width
/// is unobservable in the results.
pub fn sweep_engine_threads(requested: usize, workers: usize, cells: usize, cores: usize) -> usize {
    let in_flight = workers.min(cells).max(1);
    requested.min(cores / in_flight).max(1)
}

/// Advance `lps` to `horizon` on up to `threads` scoped threads using
/// conservative barrier windows (see the module docs).
///
/// The result is byte-identical at every `threads` value (see the
/// module docs for the contract). `threads` is clamped by
/// [`effective_threads`].
///
/// With `profile`, the run also fills it with per-LP load, per-window
/// occupancy, and barrier-stall wall-clock (replacing its previous
/// contents). Profiling reads wall-clocks and the LPs' event counters
/// once per window, so a profiled run is marginally slower, but its
/// simulation result is byte-identical to an unprofiled one.
///
/// # Panics
/// Panics if `lookahead` or `horizon` is non-positive or non-finite,
/// if an LP emits a message stamped inside the window that emitted it
/// (a lookahead violation), or if `lookahead` is too small to advance
/// past some pending event time in `f64`. A panic inside any LP
/// releases the other threads at the next barrier and propagates
/// after all threads join.
pub fn run_windows<L: LogicalProcess>(
    lps: &mut [L],
    lookahead: f64,
    horizon: f64,
    threads: usize,
    profile: Option<&mut PdesProfile>,
) -> WindowReport {
    let threads = effective_threads(threads, lps.len());
    execute_windows(lps, lookahead, horizon, threads, profile)
}

/// On unwind, flags the run as failed and takes this thread's place
/// at the next barrier, so the surviving threads pass it, see the
/// flag, and return instead of waiting forever for a thread that will
/// never arrive.
struct ReleaseOnPanic<'a> {
    barrier: &'a WindowBarrier,
    failed: &'a AtomicBool,
}

impl Drop for ReleaseOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.failed.store(true, Ordering::Relaxed);
            self.barrier.wait();
        }
    }
}

/// The windowed executor behind [`run_windows`], on exactly `threads`
/// workers (no clamp, so tests can run more threads than cores or
/// LPs; surplus threads own empty LP ranges). Worker 0 runs on the
/// calling thread, so a one-thread run spawns nothing and keeps the
/// caller's thread-local state (such as the telemetry hub).
pub(crate) fn execute_windows<L: LogicalProcess>(
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
    assert!(threads >= 1, "run_windows: threads must be at least 1");
    if lps.is_empty() {
        if let Some(p) = profile {
            *p = PdesProfile::default();
        }
        return WindowReport {
            windows: 0,
            cross_messages: 0,
        };
    }
    let n_lps = lps.len();

    // Contiguous LP ranges per thread (the shape is unobservable —
    // see the module docs — so a simple even split suffices).
    let bound = |t: usize| t * n_lps / threads;
    let mut owner = vec![0u32; n_lps];
    let mut chunks: Vec<(usize, &mut [L])> = Vec::with_capacity(threads);
    let mut rest = &mut *lps;
    for t in 0..threads {
        owner[bound(t)..bound(t + 1)].fill(t as u32);
        let (head, tail) = rest.split_at_mut(bound(t + 1) - bound(t));
        chunks.push((bound(t), head));
        rest = tail;
    }

    let x = Exchange {
        lookahead,
        horizon,
        threads,
        profiling: profile.is_some(),
        barrier: CachePadded(WindowBarrier::new(threads)),
        failed: AtomicBool::new(false),
        owner,
        slots: std::array::from_fn(|_| (0..threads * threads).map(|_| Slot::default()).collect()),
        payloads: std::array::from_fn(|_| (0..n_lps).map(|_| PayloadSlot::default()).collect()),
        boards: std::array::from_fn(|_| {
            (0..threads)
                .map(|_| CachePadded::<Bulletin>::default())
                .collect()
        }),
    };
    let wall_start = Instant::now();
    let tallies: Vec<ThreadTally> = std::thread::scope(|scope| {
        let mut chunks = chunks.into_iter();
        let (base0, chunk0) = chunks.next().expect("threads >= 1");
        let handles: Vec<_> = chunks
            .enumerate()
            .map(|(i, (base, chunk))| {
                let x = &x;
                scope.spawn(move || worker(x, i + 1, base, chunk))
            })
            .collect();
        let first = worker(&x, 0, base0, chunk0);
        std::iter::once(first)
            .chain(
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e))),
            )
            .collect()
    });

    let windows = tallies[0].windows;
    let cross_messages = tallies.iter().map(|t| t.published).sum();
    if let Some(p) = profile {
        p.threads = threads;
        p.windows = windows;
        p.cross_messages = cross_messages;
        p.wall_ns = wall_start.elapsed().as_nanos() as u64;
        p.barrier_wait_ns = tallies.iter().map(|t| t.wait_ns).sum();
        p.lp_events = lps.iter().map(|lp| lp.events_processed()).collect();
        p.lp_busy_windows = tallies
            .iter()
            .flat_map(|t| t.busy.iter().copied())
            .collect();
        p.nonempty_windows = tallies[0].nonempty_windows;
        p.window_max_events_sum = tallies[0].window_max_events_sum;
    }

    WindowReport {
        windows,
        cross_messages,
    }
}

/// One LP's payload sidecar for one parity: written by its owner
/// during a window, read by its receivers after the barrier.
type PayloadSlot<P> = CachePadded<Mutex<P>>;

/// What the workers share: the run's parameters and the
/// parity-buffered exchange (see the module docs), indexed `[parity]`.
/// Every member another thread writes sits in its own [`CachePadded`]
/// cell; the rest is read-only during the run.
struct Exchange<C, P> {
    lookahead: f64,
    horizon: f64,
    threads: usize,
    profiling: bool,
    barrier: CachePadded<WindowBarrier>,
    /// Set by a panicking worker (see [`ReleaseOnPanic`]).
    failed: AtomicBool,
    /// The thread that owns each LP.
    owner: Vec<u32>,
    /// One queue per (sender thread, receiver thread) pair, at
    /// `sender * threads + receiver`, so a receiver takes exactly its
    /// own messages without scanning anyone else's.
    slots: [Vec<Slot<C>>; 2],
    /// One payload sidecar per LP.
    payloads: [Vec<PayloadSlot<P>>; 2],
    /// One bulletin per thread.
    boards: [Vec<CachePadded<Bulletin>>; 2],
}

/// One worker: runs LPs `base..base + chunk.len()` through every
/// window, crossing one barrier per window.
fn worker<L: LogicalProcess>(
    x: &Exchange<L::Cross, L::Payload>,
    tid: usize,
    base: usize,
    chunk: &mut [L],
) -> ThreadTally {
    let _release = ReleaseOnPanic {
        barrier: &x.barrier,
        failed: &x.failed,
    };
    let (lookahead, horizon, threads) = (x.lookahead, x.horizon, x.threads);
    let mut tally = ThreadTally {
        busy: vec![0; if x.profiling { chunk.len() } else { 0 }],
        ..ThreadTally::default()
    };
    let mut outbox = Outbox::new();
    // Previous cumulative event count per chunk LP, for the profiler's
    // per-window deltas.
    let mut prev: Vec<u64> = if x.profiling {
        chunk.iter().map(|lp| lp.events_processed()).collect()
    } else {
        Vec::new()
    };
    // Staging buffers live across windows: steady state, a window
    // reuses the high-water capacity of earlier ones instead of
    // reallocating per barrier.
    let mut outgoing: Vec<Vec<Tagged<L::Cross>>> = (0..threads).map(|_| Vec::new()).collect();
    let mut incoming: Vec<Tagged<L::Cross>> = Vec::new();
    let local_min = chunk
        .iter_mut()
        .map(|lp| lp.next_time())
        .fold(f64::INFINITY, f64::min);
    x.boards[0][tid]
        .min
        .store(local_min.to_bits(), Ordering::Relaxed);
    loop {
        let p = (tally.windows % 2) as usize;
        if x.profiling {
            let t0 = Instant::now();
            x.barrier.wait();
            tally.wait_ns += t0.elapsed().as_nanos() as u64;
        } else {
            x.barrier.wait();
        }
        if x.failed.load(Ordering::Relaxed) {
            return tally;
        }
        // Occupancy of the window that just ended, folded once (by
        // thread 0) from every thread's bulletin.
        if x.profiling && tid == 0 && tally.windows > 0 {
            let (mut sum, mut mx) = (0u64, 0u64);
            for b in &x.boards[p] {
                sum += b.events.load(Ordering::Relaxed);
                mx = mx.max(b.max_events.load(Ordering::Relaxed));
            }
            tally.nonempty_windows += u64::from(sum > 0);
            tally.window_max_events_sum += mx;
        }
        // Every thread reduces the same published minima, so every
        // thread places the same window and takes the same stop
        // decision.
        let m = x.boards[p]
            .iter()
            .map(|b| f64::from_bits(b.min.load(Ordering::Relaxed)))
            .fold(f64::INFINITY, f64::min);
        if m > horizon {
            return tally;
        }
        let end = (m + lookahead).next_down().min(horizon);
        assert!(
            end >= m,
            "run_windows: lookahead {lookahead} is below the f64 rounding resolution \
             at t = {m}; the window cannot advance"
        );
        // Accept the previous window's messages addressed to this
        // chunk, in (dst, src, idx) order — a key no thread schedule
        // can perturb. Unstable sort: the key is unique, so the order
        // is total, and the unstable algorithm never allocates.
        for s in 0..threads {
            incoming.append(
                &mut x.slots[p][s * threads + tid]
                    .lock()
                    .expect("message slot lock"),
            );
        }
        incoming.sort_unstable_by_key(|t| (t.dst, t.src, t.idx));
        for t in incoming.drain(..) {
            let payload = x.payloads[p][t.src as usize]
                .lock()
                .expect("payload slot lock");
            chunk[t.dst as usize - base].accept(t.time, t.msg, &payload);
        }
        // Advance this chunk, publishing into the other parity: nobody
        // reads it until after the next barrier, and nobody still
        // reads its previous contents since the last one.
        let q = 1 - p;
        let mut local_min = f64::INFINITY;
        for (j, lp) in chunk.iter_mut().enumerate() {
            let g = base + j;
            let mut slot = x.payloads[q][g].lock().expect("payload slot lock");
            std::mem::swap(&mut outbox.payload, &mut *slot);
            outbox.min_time = f64::INFINITY;
            lp.advance_window(end, &mut outbox);
            std::mem::swap(&mut outbox.payload, &mut *slot);
            drop(slot);
            assert!(
                outbox.min_time > end,
                "run_windows: causality violation: LP {g} sent a message stamped {} \
                 inside the window ending at {end} (lookahead {lookahead})",
                outbox.min_time
            );
            local_min = local_min.min(outbox.min_time).min(lp.next_time());
            for (idx, (dst, time, msg)) in outbox.events.drain(..).enumerate() {
                let dest_thread = *x.owner.get(dst as usize).unwrap_or_else(|| {
                    panic!("run_windows: LP {g} sent to LP {dst}, which does not exist")
                });
                outgoing[dest_thread as usize].push(Tagged {
                    time,
                    dst,
                    src: g as u32,
                    idx: idx as u32,
                    msg,
                });
            }
        }
        if x.profiling {
            let (mut sum, mut mx) = (0u64, 0u64);
            for (j, lp) in chunk.iter().enumerate() {
                let e = lp.events_processed();
                let d = e - prev[j];
                prev[j] = e;
                tally.busy[j] += u64::from(d > 0);
                sum += d;
                mx = mx.max(d);
            }
            x.boards[q][tid].events.store(sum, Ordering::Relaxed);
            x.boards[q][tid].max_events.store(mx, Ordering::Relaxed);
        }
        for (r, out) in outgoing.iter_mut().enumerate() {
            if !out.is_empty() {
                tally.published += out.len() as u64;
                x.slots[q][tid * threads + r]
                    .lock()
                    .expect("message slot lock")
                    .append(out);
            }
        }
        x.boards[q][tid]
            .min
            .store(local_min.to_bits(), Ordering::Relaxed);
        tally.windows += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calendar::CalendarQueue;

    /// Thread counts the executor is pinned at: below, at and above
    /// the LP counts used here, and above any plausible core count.
    const THREADS: [usize; 5] = [1, 2, 3, 5, 8];

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
        type Cross = u64;
        type Payload = ();

        fn advance_window(&mut self, window_end: f64, out: &mut Outbox<u64, ()>) {
            while let Some((t, _seq, token)) = self.queue.pop_at_or_before(window_end) {
                let order = self.log.len() as u64;
                self.log.push((token, t, order));
                out.send((self.id + 1) % self.n, t + self.hop_delay, token);
            }
        }

        fn accept(&mut self, t: f64, token: u64, _payload: &()) {
            self.push(t, token);
        }

        fn next_time(&mut self) -> f64 {
            self.queue.min_time().unwrap_or(f64::INFINITY)
        }

        fn events_processed(&self) -> u64 {
            self.log.len() as u64
        }
    }

    type Logs = Vec<Vec<(u64, f64, u64)>>;

    fn ring(n: u32, tokens: u64) -> Vec<RingNode> {
        let mut lps: Vec<RingNode> = (0..n).map(|i| RingNode::new(i, n, 1e-3)).collect();
        for tok in 0..tokens {
            // Stagger starts so several tokens circulate at once.
            lps[(tok % n as u64) as usize].push(tok as f64 * 1e-4, tok);
        }
        lps
    }

    fn run_ring(n: u32, tokens: u64, threads: usize) -> (Logs, WindowReport) {
        let mut lps = ring(n, tokens);
        let report = execute_windows(&mut lps, 1e-3, 50e-3, threads, None);
        assert!(report.windows >= 1);
        assert!(report.cross_messages > 0);
        (lps.into_iter().map(|lp| lp.log).collect(), report)
    }

    #[test]
    fn ring_is_thread_count_invariant() {
        let oracle = run_ring(8, 5, 1);
        for threads in THREADS {
            assert_eq!(run_ring(8, 5, threads), oracle, "threads = {threads}");
        }
        // The public entry point clamps, and changes nothing either.
        let mut lps = ring(8, 5);
        let report = run_windows(&mut lps, 1e-3, 50e-3, 64, None);
        let logs: Logs = lps.into_iter().map(|lp| lp.log).collect();
        assert_eq!((logs, report), oracle);
    }

    #[test]
    fn ring_conserves_and_orders_tokens() {
        let (logs, _) = run_ring(4, 2, 2);
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
    fn windows_span_the_full_lookahead() {
        // One token, one hop per lookahead: every window holds exactly
        // one hop, so the run takes one window per hop up to the
        // horizon.
        let mut lps = ring(4, 1);
        let report = execute_windows(&mut lps, 1e-3, 50e-3, 2, None);
        let hops: usize = lps.iter().map(|lp| lp.log.len()).sum();
        assert_eq!(report.windows, hops as u64);
        assert!((50..=51).contains(&hops), "{hops} hops");
    }

    #[test]
    fn idle_gaps_cost_no_windows() {
        // Two bursts of tokens 1000 lookaheads apart, each circulating
        // for a few hops: the engine must jump the gap in one step
        // rather than march through `horizon / L` empty windows.
        struct Burst {
            inner: RingNode,
            ttl: u64,
        }
        impl LogicalProcess for Burst {
            type Cross = u64;
            type Payload = ();
            fn advance_window(&mut self, end: f64, out: &mut Outbox<u64, ()>) {
                let ring = &mut self.inner;
                while let Some((t, _seq, token)) = ring.queue.pop_at_or_before(end) {
                    ring.log.push((token, t, ring.log.len() as u64));
                    if (token & 0xff) < self.ttl {
                        out.send((ring.id + 1) % ring.n, t + ring.hop_delay, token + 1);
                    }
                }
            }
            fn accept(&mut self, t: f64, token: u64, _payload: &()) {
                self.inner.push(t, token);
            }
            fn next_time(&mut self) -> f64 {
                self.inner.next_time()
            }
        }
        let lookahead = 1e-3;
        let run = |threads: usize| {
            let mut lps: Vec<Burst> = (0..4)
                .map(|i| Burst {
                    inner: RingNode::new(i, 4, lookahead),
                    ttl: 6,
                })
                .collect();
            lps[0].inner.push(0.0, 0);
            lps[2].inner.push(0.0, 0x100);
            lps[1].inner.push(1000.0 * lookahead, 0x200);
            let report = execute_windows(&mut lps, lookahead, 2000.0 * lookahead, threads, None);
            let logs: Logs = lps.into_iter().map(|lp| lp.inner.log).collect();
            (logs, report)
        };
        let oracle = run(1);
        let events: usize = oracle.0.iter().map(Vec::len).sum();
        assert_eq!(events, 3 * 7, "every token makes its 7 stops");
        assert!(
            oracle.1.windows <= 16,
            "{} windows for two 7-hop bursts",
            oracle.1.windows
        );
        for threads in THREADS {
            assert_eq!(run(threads), oracle, "threads = {threads}");
        }
    }

    /// LPs that each fire one message at the *same* timestamp into
    /// node 0 and log the sources they see.
    struct Sink {
        id: u32,
        queue: CalendarQueue<u32>,
        seq: u64,
        fired: bool,
        seen: Vec<u32>,
    }

    impl LogicalProcess for Sink {
        type Cross = u32;
        type Payload = ();
        fn advance_window(&mut self, end: f64, out: &mut Outbox<u32, ()>) {
            if !self.fired && end >= 0.0 {
                self.fired = true;
                if self.id != 0 {
                    out.send(0, 5e-3, self.id);
                }
            }
            while let Some((_t, _s, src)) = self.queue.pop_at_or_before(end) {
                self.seen.push(src);
            }
        }
        fn accept(&mut self, t: f64, src: u32, _payload: &()) {
            let seq = self.seq;
            self.seq += 1;
            self.queue.push(t, seq, src);
        }
        fn next_time(&mut self) -> f64 {
            if self.fired {
                self.queue.min_time().unwrap_or(f64::INFINITY)
            } else {
                0.0
            }
        }
    }

    #[test]
    fn same_time_messages_merge_by_source_id() {
        // The accept order at node 0 must be by source id regardless
        // of thread count.
        let mut oracle = None;
        for threads in THREADS {
            let mut lps: Vec<Sink> = (0..5)
                .map(|id| Sink {
                    id,
                    queue: CalendarQueue::new(),
                    seq: 0,
                    fired: false,
                    seen: Vec::new(),
                })
                .collect();
            let report = execute_windows(&mut lps, 2e-3, 10e-3, threads, None);
            assert_eq!(lps[0].seen, vec![1, 2, 3, 4], "threads = {threads}");
            assert_eq!(*oracle.get_or_insert(report), report, "threads = {threads}");
        }
    }

    #[test]
    fn payload_sidecar_travels_with_messages_and_recycles() {
        // Each node publishes a window payload holding the squares of
        // the tokens it forwarded; receivers check the referenced slot
        // matches the message. Exercises owner → reader → owner
        // buffer cycling across both parities, many windows and
        // thread counts.
        struct PayloadNode {
            id: u32,
            n: u32,
            queue: CalendarQueue<u64>,
            seq: u64,
            checked: u64,
        }
        impl LogicalProcess for PayloadNode {
            type Cross = (u64, u32); // (token, payload index)
            type Payload = Vec<u64>;
            fn advance_window(&mut self, end: f64, out: &mut Outbox<Self::Cross, Vec<u64>>) {
                out.payload.clear();
                while let Some((t, _s, token)) = self.queue.pop_at_or_before(end) {
                    let idx = out.payload.len() as u32;
                    out.payload.push(token * token);
                    out.send((self.id + 1) % self.n, t + 1e-3, (token, idx));
                }
            }
            fn accept(&mut self, t: f64, (token, idx): Self::Cross, payload: &Vec<u64>) {
                assert_eq!(payload[idx as usize], token * token, "payload mismatch");
                self.checked += 1;
                let seq = self.seq;
                self.seq += 1;
                self.queue.push(t, seq, token);
            }
            fn next_time(&mut self) -> f64 {
                self.queue.min_time().unwrap_or(f64::INFINITY)
            }
        }
        let mut oracle = None;
        for threads in THREADS {
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
            let report = execute_windows(&mut lps, 1e-3, 30e-3, threads, None);
            let checked: Vec<u64> = lps.iter().map(|lp| lp.checked).collect();
            let total: u64 = checked.iter().sum();
            assert!(total > 100, "threads={threads}: only {total} checks");
            assert_eq!(
                *oracle.get_or_insert((checked.clone(), report)),
                (checked, report),
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn profiled_run_matches_oracle_and_accounts_load() {
        let (oracle, oracle_report) = run_ring(8, 5, 1);
        for threads in THREADS {
            let mut lps = ring(8, 5);
            let mut profile = PdesProfile::default();
            let report = execute_windows(&mut lps, 1e-3, 50e-3, threads, Some(&mut profile));
            // Profiling must not perturb the simulation.
            let logs: Logs = lps.into_iter().map(|lp| lp.log).collect();
            assert_eq!(logs, oracle, "threads = {threads}");
            assert_eq!(report, oracle_report, "threads = {threads}");
            // The profile restates what the LPs did.
            assert_eq!(profile.threads, threads);
            assert_eq!(profile.windows, report.windows);
            assert_eq!(profile.cross_messages, report.cross_messages);
            assert_eq!(profile.lp_events.len(), 8);
            assert_eq!(profile.lp_busy_windows.len(), 8);
            let total: u64 = profile.lp_events.iter().sum();
            let expected: u64 = logs.iter().map(|l| l.len() as u64).sum();
            assert_eq!(total, expected);
            // Windows start at the next event, so none is empty.
            assert_eq!(profile.nonempty_windows, profile.windows);
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
        // Nothing pending: no window at all.
        let mut idle = vec![RingNode::new(0, 1, 1.0)];
        let r = run_windows(&mut idle, 1.0, 5.0, 1, None);
        assert_eq!(r.windows, 0);
        // Horizon 0 still runs one window so t = 0 events fire.
        let mut one = vec![RingNode::new(0, 1, 1.0)];
        one[0].push(0.0, 9);
        let r = run_windows(&mut one, 1.0, 0.0, 3, None);
        assert_eq!(r.windows, 1);
        assert_eq!(one[0].log.len(), 1);
    }

    #[test]
    fn sweep_engine_threads_never_oversubscribes_the_cores() {
        // (requested, workers, cells, cores) -> width
        for (requested, workers, cells, cores, width) in [
            (2, 1, 30, 2, 2), // one cell at a time: the full request
            (2, 2, 30, 2, 1), // two cells fill both cores
            (4, 4, 30, 2, 1), // an oversubscribed pool: one group
            (4, 2, 1, 2, 2),  // one cell: a surplus worker idles
            (4, 2, 30, 8, 4), // 2 × 4 = 8 cores
            (8, 3, 30, 8, 2), // 3 × 2 = 6 ≤ 8 < 3 × 3
            (0, 1, 30, 8, 1), // at least one thread
            (2, 0, 0, 2, 2),  // degenerate pool and grid count as one
            (3, 1, 5, usize::MAX, 3),
        ] {
            let got = sweep_engine_threads(requested, workers, cells, cores);
            assert_eq!(got, width, "({requested}, {workers}, {cells}, {cores})");
            assert!(
                got == 1 || workers.min(cells).max(1) * got <= cores,
                "({requested}, {workers}, {cells}, {cores}) oversubscribes"
            );
        }
    }

    #[test]
    fn window_barrier_keeps_every_thread_in_step() {
        // Above the core count too, so waiters exhaust the spin budget
        // and park. Each thread counts its arrival before waiting; once
        // through crossing `g`, every thread of it must have arrived,
        // and every thread must see the generations 1, 2, 3, … in turn.
        const WAITS: u64 = 10_000;
        for threads in THREADS {
            let barrier = WindowBarrier::new(threads);
            let arrivals = AtomicU64::new(0);
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    scope.spawn(|| {
                        for g in 1..=WAITS {
                            arrivals.fetch_add(1, Ordering::Relaxed);
                            assert_eq!(barrier.wait(), g, "threads = {threads}");
                            let seen = arrivals.load(Ordering::Relaxed);
                            assert!(
                                seen >= g * threads as u64,
                                "threads = {threads}: crossing {g} passed with {seen} arrivals"
                            );
                        }
                    });
                }
            });
            assert_eq!(arrivals.into_inner(), WAITS * threads as u64);
        }
    }

    #[test]
    fn effective_threads_clamps_to_lps_and_cores() {
        let cores = std::thread::available_parallelism().map_or(usize::MAX, |n| n.get());
        assert_eq!(effective_threads(0, 8), 1);
        assert_eq!(effective_threads(4, 0), 1);
        assert_eq!(effective_threads(64, 3), 3.min(cores));
        assert_eq!(effective_threads(usize::MAX, usize::MAX), cores);
    }

    /// An LP that breaks the lookahead promise: it forwards each token
    /// a quarter lookahead later.
    fn run_violator(threads: usize) {
        let lookahead = 1e-3;
        let mut lps: Vec<RingNode> = (0..4)
            .map(|i| RingNode::new(i, 4, lookahead / 4.0))
            .collect();
        lps[0].push(0.0, 1);
        execute_windows(&mut lps, lookahead, 10e-3, threads, None);
    }

    #[test]
    #[should_panic(expected = "causality violation")]
    fn message_inside_its_window_is_rejected() {
        run_violator(1);
    }

    #[test]
    #[should_panic(expected = "causality violation")]
    fn causality_panic_releases_the_other_threads() {
        // Only the violating LP's thread panics; the others must be
        // let through the barrier, not left waiting for it.
        run_violator(3);
    }

    #[test]
    #[should_panic(expected = "rounding resolution")]
    fn lookahead_below_rounding_resolution_is_rejected() {
        // 0.5 + 1e-30 == 0.5 in f64: the window could never advance.
        let mut lps = vec![RingNode::new(0, 1, 1.0)];
        lps[0].push(0.5, 1);
        execute_windows(&mut lps, 1e-30, 1.0, 1, None);
    }
}
