//! The discrete-event kernel.
//!
//! Design notes:
//!
//! * Events are a user-defined type `M::Event`; the kernel never
//!   inspects them. This keeps the hot path monomorphic — no boxing,
//!   no dynamic dispatch per event.
//! * The priority queue orders by `(time, sequence)`. The sequence
//!   number is assigned at scheduling time, so two events at the same
//!   instant are delivered in the order they were scheduled. This is
//!   what makes runs reproducible across platforms: `f64` ties are
//!   broken deterministically.
//! * The queue itself is a [`CalendarQueue`] with the identical
//!   `(time, seq)` pop order a binary heap would give, so traces (and
//!   the campaign artifacts built from them) do not depend on the
//!   queue type. Binary and 4-ary heaps were measured against it and
//!   lost on the deepest queues (`scale2`, mean depth 563 at pop):
//!   0.77 → 0.95 s and 0.75 → 0.86 s at `--workers 1`. On shallow
//!   queues the calendar's width must follow the pace at which events
//!   leave, not a far timer's gap, or every near-term event shares one
//!   bucket (see the `calendar` module).
//! * Handlers receive a [`Ctx`], which lets them read the clock, draw
//!   random numbers and schedule further events. New events go
//!   straight into the calendar (the `Ctx` borrows it), so there is no
//!   per-event buffer allocation.
//! * **Inline successors.** A handler whose *last* schedule call would
//!   queue the next event of its own chain (a fabric slot train, a
//!   packet's next pipeline stage) may instead ask
//!   [`Ctx::try_advance`] whether that event would be the very next
//!   one delivered. If so, the handler moves its clock there and runs
//!   the successor itself: the event never enters the calendar, yet
//!   it takes its sequence number and counts as one delivered event
//!   exactly as if it had, so event counts, RNG draws and every
//!   artifact stay byte-identical. The successor must be the last
//!   schedule call because anything scheduled after it would carry a
//!   later sequence number than the inline event consumed.
//! * **One step, one event.** [`Simulation::step`] delivers exactly one
//!   logical event: its handler gets no horizon, so every
//!   `try_advance` refuses and each successor is queued. Tests that
//!   step a model by hand therefore observe every event boundary.
//!   [`Simulation::run_until`] passes its horizon, and
//!   [`Simulation::run_to_completion`] an unbounded one.

use crate::calendar::CalendarQueue;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// A simulation model: owns all mutable world state and handles events.
pub trait Model {
    /// The event alphabet of this model.
    type Event;

    /// Handle one event. `ctx` provides the clock, RNG, and scheduling.
    fn handle(&mut self, event: Self::Event, ctx: &mut Ctx<'_, Self::Event>);
}

/// Handler-side view of the simulation: clock, RNG, scheduling.
pub struct Ctx<'a, E> {
    now: f64,
    /// Latest time an inline successor may run at: the `run_until`
    /// horizon, or `-∞` under [`Simulation::step`].
    horizon: f64,
    /// Successor events this handler ran inline.
    advanced: u64,
    seq: &'a mut u64,
    queue: &'a mut CalendarQueue<E>,
    rng: &'a mut SmallRng,
}

impl<'a, E> Ctx<'a, E> {
    /// Current simulation time.
    #[inline]
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Schedule `event` to fire `delay` time units from now.
    ///
    /// # Panics
    /// Panics if `delay` is negative or non-finite — scheduling into
    /// the past is always a model bug and must fail loudly.
    pub fn schedule(&mut self, delay: f64, event: E) {
        assert!(
            delay.is_finite() && delay >= 0.0,
            "schedule: delay must be finite and nonnegative, got {delay}"
        );
        let seq = *self.seq;
        *self.seq += 1;
        dra_telemetry::des_scheduled();
        self.queue.push(self.now + delay, seq, event);
    }

    /// Schedule `event` at absolute time `at` (must be ≥ now).
    pub fn schedule_at(&mut self, at: f64, event: E) {
        assert!(
            at.is_finite() && at >= self.now,
            "schedule_at: time {at} is before now ({})",
            self.now
        );
        let seq = *self.seq;
        *self.seq += 1;
        dra_telemetry::des_scheduled();
        self.queue.push(at, seq, event);
    }

    /// Try to deliver the handler's successor event at time `t` inline.
    ///
    /// Succeeds only when `t` is within the run's horizon and no queued
    /// event is due at or before `t` — a queued event tied at `t` was
    /// scheduled earlier, so its lower sequence number goes first. On
    /// success the clock moves to `t` and the successor counts as one
    /// scheduled and one delivered event (taking the sequence number
    /// it would have been queued under); the caller then runs the
    /// successor's handling itself instead of scheduling it. On
    /// failure nothing changes and the caller schedules as usual.
    ///
    /// Only a handler's **last** schedule call may be replaced this
    /// way: an event scheduled after the successor would be queued
    /// with a sequence number the inline event never had.
    ///
    /// # Panics
    /// Panics if `t` is before now or non-finite, like
    /// [`Ctx::schedule_at`].
    #[inline]
    pub fn try_advance(&mut self, t: f64) -> bool {
        assert!(
            t.is_finite() && t >= self.now,
            "try_advance: time {t} is before now ({})",
            self.now
        );
        if t > self.horizon || self.queue.has_due_by(t) {
            return false;
        }
        *self.seq += 1;
        self.now = t;
        self.advanced += 1;
        dra_telemetry::des_scheduled();
        dra_telemetry::des_event(t, self.queue.len(), self.queue.bucket_count());
        true
    }

    /// The simulation's random number generator.
    #[inline]
    pub fn rng(&mut self) -> &mut SmallRng {
        self.rng
    }
}

/// The simulation executive: owns the model, the clock, the queue, and
/// the RNG.
///
/// ```
/// use dra_des::{Ctx, Model, Simulation};
///
/// // A counter that reschedules itself until it has ticked 3 times.
/// struct Ticker { ticks: u32 }
/// impl Model for Ticker {
///     type Event = ();
///     fn handle(&mut self, _: (), ctx: &mut Ctx<'_, ()>) {
///         self.ticks += 1;
///         if self.ticks < 3 {
///             ctx.schedule(1.5, ());
///         }
///     }
/// }
///
/// let mut sim = Simulation::new(Ticker { ticks: 0 }, 42);
/// sim.schedule(0.0, ());
/// sim.run_to_completion();
/// assert_eq!(sim.model().ticks, 3);
/// assert_eq!(sim.now(), 3.0);
/// ```
pub struct Simulation<M: Model> {
    model: M,
    queue: CalendarQueue<M::Event>,
    now: f64,
    seq: u64,
    rng: SmallRng,
    events_processed: u64,
}

impl<M: Model> Simulation<M> {
    /// Create a simulation over `model`, seeded deterministically.
    pub fn new(model: M, seed: u64) -> Self {
        Simulation {
            model,
            queue: CalendarQueue::new(),
            now: 0.0,
            seq: 0,
            rng: SmallRng::seed_from_u64(seed),
            events_processed: 0,
        }
    }

    /// Current simulation time.
    #[inline]
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Number of events delivered so far.
    #[inline]
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Visit every pending event, in unspecified order (e.g. to count
    /// what is still in flight at a horizon).
    pub fn for_each_pending(&self, f: impl FnMut(&M::Event)) {
        self.queue.for_each_item(f);
    }

    /// Borrow the model (for reading metrics after/between runs).
    #[inline]
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Mutably borrow the model (e.g. to reconfigure between phases).
    #[inline]
    pub fn model_mut(&mut self) -> &mut M {
        &mut self.model
    }

    /// Consume the simulation, returning the model.
    pub fn into_model(self) -> M {
        self.model
    }

    /// Schedule an event from outside a handler (initial conditions).
    pub fn schedule(&mut self, delay: f64, event: M::Event) {
        assert!(
            delay.is_finite() && delay >= 0.0,
            "schedule: delay must be finite and nonnegative, got {delay}"
        );
        let seq = self.seq;
        self.seq += 1;
        dra_telemetry::des_scheduled();
        self.queue.push(self.now + delay, seq, event);
    }

    /// Hand a popped event to the model: advance the clock, count the
    /// event, report it to telemetry and run its handler, which may run
    /// successors inline up to `horizon` (each counted as an event).
    #[inline]
    fn deliver(&mut self, time: f64, event: M::Event, horizon: f64) {
        debug_assert!(time >= self.now, "time went backwards");
        self.events_processed += 1;
        dra_telemetry::des_event(time, self.queue.len(), self.queue.bucket_count());
        let mut ctx = Ctx {
            now: time,
            horizon,
            advanced: 0,
            seq: &mut self.seq,
            queue: &mut self.queue,
            rng: &mut self.rng,
        };
        self.model.handle(event, &mut ctx);
        self.now = ctx.now;
        self.events_processed += ctx.advanced;
    }

    /// Deliver exactly one event, if any, and return its timestamp.
    /// No successor runs inline (see the module docs).
    pub fn step(&mut self) -> Option<f64> {
        let (time, _seq, event) = self.queue.pop()?;
        self.deliver(time, event, f64::NEG_INFINITY);
        Some(time)
    }

    /// Run until the queue empties or `horizon` is reached. Events
    /// stamped after `horizon` stay queued and the clock is advanced
    /// exactly to `horizon`.
    ///
    /// Returns the number of events delivered by this call.
    pub fn run_until(&mut self, horizon: f64) -> u64 {
        assert!(horizon.is_finite() && horizon >= self.now);
        let start = self.events_processed;
        // A single bounded pop both finds the head and removes it when
        // in range — no separate peek pass, and a miss caches the found
        // minimum so the next call stays O(1).
        while let Some((time, _seq, event)) = self.queue.pop_at_or_before(horizon) {
            self.deliver(time, event, horizon);
        }
        self.now = horizon;
        self.events_processed - start
    }

    /// Run until no events remain.
    pub fn run_to_completion(&mut self) -> u64 {
        let start = self.events_processed;
        while let Some((time, _seq, event)) = self.queue.pop() {
            self.deliver(time, event, f64::INFINITY);
        }
        self.events_processed - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A model that records the order events arrive in.
    struct Recorder {
        seen: Vec<(f64, u32)>,
        chain: bool,
    }

    impl Model for Recorder {
        type Event = u32;
        fn handle(&mut self, event: u32, ctx: &mut Ctx<'_, u32>) {
            self.seen.push((ctx.now(), event));
            if self.chain && event < 5 {
                ctx.schedule(1.0, event + 1);
            }
        }
    }

    fn recorder() -> Recorder {
        Recorder {
            seen: Vec::new(),
            chain: false,
        }
    }

    #[test]
    fn events_delivered_in_time_order() {
        let mut sim = Simulation::new(recorder(), 1);
        sim.schedule(3.0, 30);
        sim.schedule(1.0, 10);
        sim.schedule(2.0, 20);
        sim.run_to_completion();
        assert_eq!(sim.model().seen, vec![(1.0, 10), (2.0, 20), (3.0, 30)]);
    }

    #[test]
    fn ties_broken_by_scheduling_order() {
        let mut sim = Simulation::new(recorder(), 1);
        sim.schedule(1.0, 1);
        sim.schedule(1.0, 2);
        sim.schedule(1.0, 3);
        sim.run_to_completion();
        let events: Vec<u32> = sim.model().seen.iter().map(|&(_, e)| e).collect();
        assert_eq!(events, vec![1, 2, 3]);
    }

    #[test]
    fn handlers_can_schedule_followups() {
        let mut sim = Simulation::new(
            Recorder {
                seen: Vec::new(),
                chain: true,
            },
            1,
        );
        sim.schedule(0.0, 1);
        sim.run_to_completion();
        let events: Vec<u32> = sim.model().seen.iter().map(|&(_, e)| e).collect();
        assert_eq!(events, vec![1, 2, 3, 4, 5]);
        assert_eq!(sim.now(), 4.0);
        assert_eq!(sim.events_processed(), 5);
    }

    #[test]
    fn run_until_respects_horizon() {
        let mut sim = Simulation::new(recorder(), 1);
        sim.schedule(1.0, 1);
        sim.schedule(5.0, 2);
        let n = sim.run_until(3.0);
        assert_eq!(n, 1);
        assert_eq!(sim.now(), 3.0);
        let mut left = Vec::new();
        sim.for_each_pending(|&e| left.push(e));
        assert_eq!(left, [2]);
        // Continue to the end.
        sim.run_until(10.0);
        assert_eq!(sim.model().seen.len(), 2);
        assert_eq!(sim.now(), 10.0);
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        // A model that uses the RNG to decide delays.
        struct Jitter {
            trace: Vec<f64>,
        }
        impl Model for Jitter {
            type Event = u32;
            fn handle(&mut self, ev: u32, ctx: &mut Ctx<'_, u32>) {
                use rand::Rng;
                self.trace.push(ctx.now());
                if ev < 20 {
                    let d: f64 = ctx.rng().gen_range(0.0..2.0);
                    ctx.schedule(d, ev + 1);
                }
            }
        }
        let run = |seed| {
            let mut sim = Simulation::new(Jitter { trace: Vec::new() }, seed);
            sim.schedule(0.0, 0);
            sim.run_to_completion();
            sim.into_model().trace
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    #[should_panic(expected = "nonnegative")]
    fn negative_delay_panics() {
        let mut sim = Simulation::new(recorder(), 1);
        sim.schedule(-1.0, 1);
    }

    #[test]
    fn schedule_at_absolute() {
        struct At;
        impl Model for At {
            type Event = u8;
            fn handle(&mut self, ev: u8, ctx: &mut Ctx<'_, u8>) {
                if ev == 0 {
                    ctx.schedule_at(7.5, 1);
                }
            }
        }
        let mut sim = Simulation::new(At, 1);
        sim.schedule(1.0, 0);
        sim.run_to_completion();
        assert_eq!(sim.now(), 7.5);
    }

    /// A chain of `len` events `gap` apart that runs each successor
    /// inline when `inline` is set and the kernel allows it. Events
    /// numbered 100 and up are standalone (no successor).
    struct Chain {
        gap: f64,
        len: u32,
        inline: bool,
        seen: Vec<(f64, u32)>,
        ran_inline: u32,
    }

    impl Model for Chain {
        type Event = u32;
        fn handle(&mut self, mut ev: u32, ctx: &mut Ctx<'_, u32>) {
            loop {
                self.seen.push((ctx.now(), ev));
                if ev >= 100 || ev + 1 >= self.len {
                    return;
                }
                ev += 1;
                if self.inline && ctx.try_advance(ctx.now() + self.gap) {
                    self.ran_inline += 1;
                    continue;
                }
                ctx.schedule(self.gap, ev);
                return;
            }
        }
    }

    fn chain(gap: f64, len: u32, inline: bool) -> Simulation<Chain> {
        let model = Chain {
            gap,
            len,
            inline,
            seen: Vec::new(),
            ran_inline: 0,
        };
        Simulation::new(model, 1)
    }

    #[test]
    fn try_advance_refuses_beyond_the_run_horizon() {
        let mut sim = chain(1.0, 6, true);
        sim.schedule(0.0, 0);
        assert_eq!(sim.run_until(2.5), 3);
        assert_eq!(sim.model().seen, [(0.0, 0), (1.0, 1), (2.0, 2)]);
        assert_eq!(sim.model().ran_inline, 2);
        assert_eq!(sim.now(), 2.5);
        // The successor past the horizon waits in the queue, where the
        // next run finds it.
        let mut left = Vec::new();
        sim.for_each_pending(|&e| left.push(e));
        assert_eq!(left, [3]);
        assert_eq!(sim.run_until(10.0), 3);
        assert_eq!(sim.model().seen.len(), 6);
        assert_eq!(sim.model().ran_inline, 4);
    }

    #[test]
    fn try_advance_yields_to_a_queued_event_tied_at_its_time() {
        let mut sim = chain(1.0, 3, true);
        // Scheduled first, so at t = 1 its lower sequence number beats
        // the chain's successor.
        sim.schedule(1.0, 100);
        sim.schedule(0.0, 0);
        sim.run_until(10.0);
        let order: Vec<u32> = sim.model().seen.iter().map(|&(_, e)| e).collect();
        assert_eq!(order, [0, 100, 1, 2]);
        // Event 1 was queued; event 2 then ran inline behind it.
        assert_eq!(sim.model().ran_inline, 1);
    }

    #[test]
    fn step_delivers_exactly_one_logical_event() {
        for gap in [0.0, 1.0] {
            let mut sim = chain(gap, 4, true);
            sim.schedule(0.0, 0);
            for n in 1..=4u64 {
                assert!(sim.step().is_some());
                assert_eq!(sim.events_processed(), n, "gap {gap}");
                assert_eq!(sim.model().seen.len() as u64, n, "gap {gap}");
            }
            assert_eq!(sim.step(), None);
            assert_eq!(sim.model().ran_inline, 0);
        }
    }

    #[test]
    fn inline_successors_count_as_scheduled_and_delivered_events() {
        let run = |inline: bool| {
            dra_telemetry::enable(dra_telemetry::Config::default());
            let mut sim = chain(0.5, 50, inline);
            sim.schedule(0.0, 0);
            sim.schedule(7.0, 100);
            let delivered = sim.run_until(100.0);
            let doc = dra_telemetry::snapshot().expect("telemetry on");
            dra_telemetry::disable();
            let counter = |name: &str| {
                let router = doc.router.as_ref().expect("kernel hooks fired");
                router.counters.iter().find(|c| c.0 == name).map(|c| c.1)
            };
            let counts = (
                delivered,
                sim.events_processed(),
                counter("des.events"),
                counter("des.scheduled"),
            );
            (counts, sim.into_model())
        };
        let (inline_counts, inline) = run(true);
        let (queued_counts, queued) = run(false);
        assert_eq!(inline_counts, (51, 51, Some(51), Some(51)));
        assert_eq!(inline_counts, queued_counts);
        assert_eq!(inline.seen, queued.seen);
        // The chain ran inline except where the standalone event at
        // t = 7 sat at the successor's time.
        assert_eq!(inline.ran_inline, 48);
        assert_eq!(queued.ran_inline, 0);
    }

    #[test]
    fn empty_simulation_is_fine() {
        let mut sim = Simulation::new(recorder(), 1);
        assert_eq!(sim.run_to_completion(), 0);
        assert_eq!(sim.now(), 0.0);
    }
}
