//! A calendar-queue event scheduler (Brown 1988, with a min-hint fast
//! path), the priority queue under [`crate::sim::Simulation`].
//!
//! Events are keyed by `(time, seq)` and popped in exactly ascending
//! key order — the same total order a binary heap would give, which is
//! what keeps simulations bit-reproducible across the scheduler swap
//! (see `DESIGN.md`, "Determinism contract").
//!
//! Structure: a power-of-two array of buckets, each a `VecDeque`
//! sorted ascending by key, covering `width` units of simulated time
//! per bucket. An event at time `t` lives in virtual bucket
//! `⌊t/width⌋`, mapped to a physical bucket by masking. Dequeue walks
//! virtual buckets from the current clock position; after a full lap
//! (one "calendar year") with no hit it falls back to a direct scan of
//! all bucket heads, so sparse far-future events (armed repair timers,
//! say) cost one O(buckets) search instead of an unbounded walk.
//!
//! Three departures from the textbook structure, all load-bearing for
//! the router workloads:
//!
//! * **Min hint.** Whenever the global minimum is known (after a
//!   resize, after popping an event whose bucket head shares its
//!   virtual bucket, after a failed bounded pop or `has_due_by` check,
//!   or when a push lands below the current hint) it is cached, making
//!   the next pop O(1). Chains that keep one event in flight and
//!   same-time event batches — the two commonest simulator shapes —
//!   never re-scan.
//! * **O(1) at both ends of a bucket.** Buckets sort ascending with
//!   the minimum at the front. A key above the back appends (same-time
//!   events arrive in `seq` order and leave from the front, so a batch
//!   of N events at one instant costs O(N)); a key below the front
//!   prepends, which is where a near-term event lands when its bucket
//!   already holds events a calendar year or more ahead. Only a key
//!   strictly inside a bucket's range pays a binary search and a
//!   shift.
//! * **Width from the dequeue pace.** The bucket width is twice the
//!   mean gap between consecutive pops since it was last set, measured
//!   over at least 64 pops; before that (a queue that has only been
//!   filled) it is twice Brown's trimmed mean of the population's
//!   gaps, which ignores gaps more than twice the plain mean. The
//!   population alone misleads in both ways a router simulation
//!   stresses: one far timer (the 10 ms reassembly purge) stretched a
//!   plain mean gap to 0.5–1.7 ms while `faceoff` pops an event every
//!   ~10 ns, and self-rescheduling chains (slot trains, packet stages)
//!   are never in the population long enough to be sampled. With all
//!   near-term events in one bucket, 97.7% of `faceoff`'s pushes were
//!   sorted inserts into deques 17–28 entries long.
//!
//! Bucket count doubles when occupancy exceeds two events per bucket
//! and halves below one per four buckets (the wide hysteresis band
//! keeps an oscillating population from thrashing resizes). Each
//! rebuild re-sets the width, and every 4,096 pops between rebuilds
//! the pace is checked against it: a drift beyond a factor of two
//! (a fault slows one card, traffic drains) re-files the events at the
//! same bucket count. Resizes reuse retained storage (a scratch buffer
//! plus the physical bucket vector, which never shrinks) so a
//! steady-state resize performs no heap allocation. The queues stay
//! shallow but not tiny: the mean depth at pop is 32 events in
//! `faceoff`, 41 in `resilience` and 563 in `scale2`, so a population
//! that drains and refills crosses resize boundaries again and again.

use std::collections::VecDeque;

/// Fewest physical buckets the calendar will shrink to.
const MIN_BUCKETS: usize = 4;
/// Most physical buckets the calendar will grow to.
const MAX_BUCKETS: usize = 1 << 20;
/// Head-sample size for the population width estimate.
const WIDTH_SAMPLE: usize = 64;
/// Fewest pops the dequeue pace needs before it sets the width.
const PACE_MIN_POPS: u64 = 64;
/// Pops between checks that the width still fits the dequeue pace.
const RECALIBRATE_POPS: u64 = 1 << 12;
/// Bucket width in units of the mean gap between consecutive pops.
const PACE_WIDTHS: f64 = 2.0;

struct Entry<T> {
    /// Virtual bucket `⌊time/width⌋`, cached so the dequeue walk never
    /// re-derives it from floating point.
    vb: u64,
    time: f64,
    seq: u64,
    item: T,
}

/// The dequeue pace since the width was last set: the first and last
/// popped times and the pops in between.
#[derive(Clone, Copy, Default)]
struct Pace {
    first: f64,
    last: f64,
    pops: u64,
}

impl Pace {
    #[inline]
    fn note(&mut self, time: f64) {
        if self.pops == 0 {
            self.first = time;
        }
        self.last = time;
        self.pops += 1;
    }

    /// The bucket width the pace asks for, once enough pops spread
    /// over a positive span have been seen.
    fn width(&self) -> Option<f64> {
        (self.pops >= PACE_MIN_POPS && self.last > self.first)
            .then(|| PACE_WIDTHS * (self.last - self.first) / (self.pops - 1) as f64)
    }
}

/// Cached location of the global minimum event.
#[derive(Clone, Copy)]
struct Hint {
    bucket: usize,
    vb: u64,
    time: f64,
}

/// A calendar queue over items keyed by `(time, seq)`.
///
/// `time` must be finite and non-negative; `(time, seq)` pairs are
/// expected to be unique (the simulation kernel guarantees this by
/// assigning `seq` from a counter). Pops return items in ascending
/// `(time, seq)` order — ties on `time` leave in `seq` order.
///
/// ```
/// use dra_des::calendar::CalendarQueue;
///
/// let mut q = CalendarQueue::new();
/// q.push(2.0, 0, "late");
/// q.push(1.0, 1, "early");
/// q.push(1.0, 2, "early-tie");
/// assert_eq!(q.pop(), Some((1.0, 1, "early")));
/// assert_eq!(q.pop(), Some((1.0, 2, "early-tie")));
/// assert_eq!(q.pop(), Some((2.0, 0, "late")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct CalendarQueue<T> {
    /// Physical bucket storage. Only the first `mask + 1` buckets are
    /// logically active; the tail (left over from a shrink) stays
    /// allocated-but-empty so the next grow refills capacity instead
    /// of allocating. A population that oscillates across a resize
    /// boundary therefore re-files entries through retained storage —
    /// zero heap traffic — rather than reallocating every bucket (mean
    /// depths at pop run from 32 events in `faceoff` to 563 in
    /// `scale2`, and a fabric slot's delivery batch drains and refills
    /// every slot time).
    buckets: Vec<VecDeque<Entry<T>>>,
    /// Logical bucket count minus one; always a power of two minus one.
    mask: usize,
    width: f64,
    inv_width: f64,
    /// Queued events.
    len: usize,
    /// Lower bound on every bucketed event's virtual bucket: the
    /// dequeue walk resumes here.
    cur_vb: u64,
    hint: Option<Hint>,
    /// Scratch buffer for resize re-filing, retained across resizes so
    /// a steady-state resize performs no heap allocation.
    resize_scratch: Vec<Entry<T>>,
    pace: Pace,
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> CalendarQueue<T> {
    /// An empty calendar (unit bucket width until the first resize).
    pub fn new() -> Self {
        CalendarQueue {
            buckets: (0..MIN_BUCKETS).map(|_| VecDeque::new()).collect(),
            mask: MIN_BUCKETS - 1,
            width: 1.0,
            inv_width: 1.0,
            len: 0,
            cur_vb: 0,
            hint: None,
            resize_scratch: Vec::new(),
            pace: Pace::default(),
        }
    }

    /// Number of queued events.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Calendar buckets currently in use (the logical count; physical
    /// storage may exceed this after a shrink). Exposed for telemetry:
    /// resizes under load show up as a growing bucket count.
    #[inline]
    pub(crate) fn bucket_count(&self) -> usize {
        self.mask + 1
    }

    #[inline]
    fn vb_of(&self, time: f64) -> u64 {
        // Saturating cast: absurdly far-future events all land in one
        // virtual bucket, which is deterministic and merely slow.
        (time * self.inv_width) as u64
    }

    /// Queue `item` at key `(time, seq)`.
    ///
    /// # Panics
    /// Panics if `time` is negative or non-finite.
    pub fn push(&mut self, time: f64, seq: u64, item: T) {
        assert!(
            time.is_finite() && time >= 0.0,
            "calendar queue: time must be finite and nonnegative, got {time}"
        );
        let n = self.mask + 1;
        if self.len + 1 > 2 * n && n < MAX_BUCKETS {
            self.resize(n * 2);
        }
        let vb = self.vb_of(time);
        let entry = Entry {
            vb,
            time,
            seq,
            item,
        };
        let idx = vb as usize & self.mask;
        file_sorted(&mut self.buckets[idx], entry);
        self.len += 1;
        if vb < self.cur_vb {
            self.cur_vb = vb;
        }
        // The hint may only name the *global* minimum. It survives a
        // push that lands at or above it (ties go to the hint: `seq`
        // is monotone, so an equal-time push sorts after). A push that
        // undercuts a known minimum — or fills an empty queue — is
        // itself the new minimum. With no cached minimum and other
        // events present, stay agnostic; the next pop scans from the
        // `cur_vb` floor.
        self.hint = match self.hint {
            Some(h) if h.time <= time => Some(h),
            None if self.len > 1 => None,
            _ => Some(Hint {
                bucket: idx,
                vb,
                time,
            }),
        };
    }

    /// Remove and return the minimum-keyed event, if any.
    pub fn pop(&mut self) -> Option<(f64, u64, T)> {
        self.pop_at_or_before(f64::INFINITY)
    }

    /// Remove and return the minimum-keyed event if its time is
    /// `<= horizon`; otherwise leave the queue untouched (and cache
    /// the found minimum so the next call is O(1)).
    pub(crate) fn pop_at_or_before(&mut self, horizon: f64) -> Option<(f64, u64, T)> {
        let h = self.find_min()?;
        if h.time > horizon {
            return None;
        }
        Some(self.take_front(h.bucket, h.vb))
    }

    /// Is some queued event due at or before `t`? Caches the minimum,
    /// so the pop that usually follows is O(1).
    #[inline]
    pub(crate) fn has_due_by(&mut self, t: f64) -> bool {
        self.find_min().is_some_and(|h| h.time <= t)
    }

    /// Locate the minimum-keyed event and cache it in the hint.
    #[inline]
    fn find_min(&mut self) -> Option<Hint> {
        if self.len == 0 {
            return None;
        }
        if self.hint.is_none() {
            self.hint = Some(self.scan_min());
        }
        self.hint
    }

    /// Walk the virtual buckets from the cursor to the first one whose
    /// front belongs to it; after a whole calendar year without a hit
    /// the remaining events are sparse and far out, so fall back to a
    /// direct scan of the bucket heads. Leaves the cursor on the found
    /// minimum's virtual bucket.
    fn scan_min(&mut self) -> Hint {
        let mut vb = self.cur_vb;
        for _ in 0..=self.mask {
            let idx = vb as usize & self.mask;
            if let Some(front) = self.buckets[idx].front() {
                // The bucket front is its minimum; if it belongs to
                // the virtual bucket under the cursor it is the global
                // minimum (earlier events would have a smaller vb).
                if front.vb == vb {
                    self.cur_vb = vb;
                    return Hint {
                        bucket: idx,
                        vb,
                        time: front.time,
                    };
                }
            }
            vb = vb.wrapping_add(1);
        }
        let mut best: Option<(usize, &Entry<T>)> = None;
        for (idx, b) in self.buckets.iter().enumerate() {
            if let Some(f) = b.front() {
                if best.is_none_or(|(_, e)| (f.time, f.seq) < (e.time, e.seq)) {
                    best = Some((idx, f));
                }
            }
        }
        let (bucket, e) = best.expect("non-empty queue with empty buckets");
        let hint = Hint {
            bucket,
            vb: e.vb,
            time: e.time,
        };
        self.cur_vb = hint.vb;
        hint
    }

    /// Visit every queued item, in unspecified order.
    pub(crate) fn for_each_item(&self, mut f: impl FnMut(&T)) {
        for bucket in &self.buckets {
            for e in bucket {
                f(&e.item);
            }
        }
    }

    /// Time of the minimum-keyed event without removing it (the
    /// tests compare it with a reference heap).
    #[cfg(test)]
    pub(crate) fn min_time(&mut self) -> Option<f64> {
        self.find_min().map(|h| h.time)
    }

    fn take_front(&mut self, idx: usize, vb: u64) -> (f64, u64, T) {
        let e = self.buckets[idx]
            .pop_front()
            .expect("hinted bucket is empty");
        self.len -= 1;
        self.cur_vb = vb;
        // If the next event shares the popped event's virtual bucket
        // it is the new global minimum: same-time batches drain O(1).
        self.hint = match self.buckets[idx].front() {
            Some(n) if n.vb == vb => Some(Hint {
                bucket: idx,
                vb,
                time: n.time,
            }),
            _ => None,
        };
        // Shrink only below one event per four buckets: with growth at
        // two per bucket this leaves a 8x hysteresis band, so an event
        // population that oscillates around a power-of-two boundary
        // (e.g. a fabric slot's delivery batch draining each slot time)
        // does not thrash grow/shrink resizes — and their allocations —
        // at a steady rate.
        self.pace.note(e.time);
        let n = self.mask + 1;
        if self.len < n / 4 && n > MIN_BUCKETS {
            self.resize(n / 2);
        } else if self.pace.pops >= RECALIBRATE_POPS {
            // Between resizes the event density can drift a long way
            // (a fault slows one card, traffic drains): re-file at the
            // same size once the pace has moved off the width by more
            // than a factor of two, else start a fresh pace window.
            match self.pace.width() {
                Some(w) if !(0.5..=2.0).contains(&(w / self.width)) => self.resize(n),
                _ => self.pace = Pace::default(),
            }
        }
        (e.time, e.seq, e.item)
    }

    /// Rebuild with `new_n` logical buckets, re-estimating the bucket
    /// width from the current event population.
    ///
    /// Allocation-free in steady state: entries drain into a retained
    /// scratch buffer, the physical bucket vector only ever grows (a
    /// shrink leaves the tail buckets allocated-but-empty for the next
    /// grow to reuse), and the width estimate samples onto the stack.
    /// Resizing can never change pop order — that is a pure function
    /// of the `(time, seq)` keys — so this is byte-identity-safe.
    fn resize(&mut self, new_n: usize) {
        let mut all = std::mem::take(&mut self.resize_scratch);
        all.clear();
        all.reserve(self.len);
        for b in &mut self.buckets {
            all.extend(b.drain(..));
        }
        if let Some(w) = self.pace.width().or_else(|| estimate_width(&all)) {
            self.width = w;
            self.inv_width = 1.0 / w;
        }
        self.pace = Pace::default();
        if self.buckets.len() < new_n {
            self.buckets.resize_with(new_n, VecDeque::new);
        }
        self.mask = new_n - 1;
        let mut min: Option<(f64, u64)> = None;
        for e in &all {
            let key = (e.time, e.seq);
            if min.is_none_or(|m| key < m) {
                min = Some(key);
            }
        }
        for mut e in all.drain(..) {
            e.vb = self.vb_of(e.time);
            let idx = e.vb as usize & self.mask;
            file_sorted(&mut self.buckets[idx], e);
        }
        self.hint = min.map(|(time, _)| {
            let vb = self.vb_of(time);
            Hint {
                bucket: vb as usize & self.mask,
                vb,
                time,
            }
        });
        self.cur_vb = self.hint.map_or(0, |h| h.vb);
        self.resize_scratch = all;
    }
}

/// Insert `e` into a bucket kept sorted ascending by `(time, seq)`.
/// The two commonest cases are O(1): a key above the back (same-time
/// batches, chains moving forward) appends, and a key below the front
/// (a near-term event landing in a bucket whose front is an event a
/// calendar year or more ahead) prepends. Only a key strictly inside
/// the bucket's range pays a binary search and a shift.
#[inline]
fn file_sorted<T>(bucket: &mut VecDeque<Entry<T>>, e: Entry<T>) {
    let key = (e.time, e.seq);
    match (bucket.front(), bucket.back()) {
        (_, None) => bucket.push_back(e),
        (_, Some(b)) if (b.time, b.seq) < key => bucket.push_back(e),
        (Some(f), _) if key < (f.time, f.seq) => bucket.push_front(e),
        _ => {
            let at = bucket.partition_point(|x| (x.time, x.seq) < key);
            bucket.insert(at, e);
        }
    }
}

/// Bucket width from the near-term spacing of a sample, or `None` when
/// the population gives no signal (fewer than two events, or every
/// sampled gap zero). The sample is the first `WIDTH_SAMPLE` entries
/// in bucket-drain order — an arbitrary but representative slice of
/// the population, chosen over a smallest-k selection so the estimate
/// fits in a stack buffer and resize stays allocation-free.
///
/// The spacing is Brown's (1988) trimmed mean: the mean positive gap,
/// recomputed over only the gaps at most twice that mean. A plain mean
/// lets one far timer set the width: 63 events 20 ns apart beside a
/// purge timer 10 ms out average a 160 µs gap, which files every
/// near-term event into one bucket and turns each push into a sorted
/// insert. Trimmed, the same sample gives 20 ns.
fn estimate_width<T>(all: &[Entry<T>]) -> Option<f64> {
    if all.len() < 2 {
        return None;
    }
    let sample = WIDTH_SAMPLE.min(all.len());
    let mut buf = [0.0f64; WIDTH_SAMPLE];
    for (slot, e) in buf.iter_mut().zip(all.iter()) {
        *slot = e.time;
    }
    let times = &mut buf[..sample];
    times.sort_unstable_by(f64::total_cmp);
    let mean_gap_below = |limit: f64| {
        let (mut sum, mut n) = (0.0, 0u32);
        for w in times.windows(2) {
            let gap = w[1] - w[0];
            if gap > 0.0 && gap <= limit {
                sum += gap;
                n += 1;
            }
        }
        (n > 0).then(|| sum / n as f64)
    };
    let mean = mean_gap_below(f64::INFINITY)?;
    let near = mean_gap_below(2.0 * mean).unwrap_or(mean);
    // Twice the mean near-term gap targets ~2 events per bucket.
    Some((2.0 * near).max(f64::MIN_POSITIVE))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_key_order() {
        let mut q = CalendarQueue::new();
        let keys = [
            (5.0, 0),
            (1.0, 1),
            (3.0, 2),
            (1.0, 3),
            (0.0, 4),
            (3.0, 5),
            (2.5, 6),
        ];
        for &(t, s) in &keys {
            q.push(t, s, (t, s));
        }
        let mut sorted = keys.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for want in sorted {
            assert_eq!(q.pop(), Some((want.0, want.1, want)));
        }
        assert_eq!(q.pop(), None);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn bounded_pop_respects_horizon() {
        let mut q = CalendarQueue::new();
        q.push(1.0, 0, ());
        q.push(5.0, 1, ());
        assert!(q.pop_at_or_before(0.5).is_none());
        assert_eq!(q.pop_at_or_before(1.0), Some((1.0, 0, ())));
        assert!(q.pop_at_or_before(4.9).is_none());
        assert_eq!(q.len(), 1);
        assert_eq!(q.min_time(), Some(5.0));
        assert_eq!(q.pop_at_or_before(5.0), Some((5.0, 1, ())));
        assert_eq!(q.min_time(), None);
    }

    #[test]
    fn far_future_stragglers_are_found() {
        let mut q = CalendarQueue::new();
        // A dense cluster plus events years of bucket-widths away.
        for s in 0..100 {
            q.push(s as f64 * 1e-6, s, s);
        }
        q.push(1e9, 100, 100);
        q.push(2e9, 101, 101);
        let mut got = Vec::new();
        while let Some((_, _, v)) = q.pop() {
            got.push(v);
        }
        let want: Vec<u64> = (0..102).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn interleaved_push_pop_with_resizes() {
        // Push enough to force growth, drain to force shrink, refill.
        let mut q = CalendarQueue::new();
        let mut seq = 0u64;
        for round in 0..3 {
            for i in 0..500u64 {
                q.push((round * 1000 + i) as f64 * 0.1, seq, seq);
                seq += 1;
            }
            let mut last = (f64::NEG_INFINITY, 0u64);
            for _ in 0..400 {
                let (t, s, _) = q.pop().unwrap();
                assert!(
                    (t, s) > last,
                    "order violated: {:?} after {:?}",
                    (t, s),
                    last
                );
                last = (t, s);
            }
        }
        assert_eq!(q.len(), 300);
    }

    #[test]
    fn oscillating_population_does_not_thrash_resizes() {
        // A population that swings across the grow threshold (like a
        // fabric slot's delivery batch draining every slot time) must
        // settle at one bucket count, not bounce grow/shrink forever.
        let mut q = CalendarQueue::new();
        let mut seq = 0u64;
        let mut t = 0.0;
        for _ in 0..4 {
            while q.len() < 16 {
                t += 1e-6;
                q.push(t, seq, ());
                seq += 1;
            }
        }
        let settled = q.bucket_count();
        for _ in 0..200 {
            while q.len() > 7 {
                q.pop().unwrap();
            }
            while q.len() < 16 {
                t += 1e-6;
                q.push(t, seq, ());
                seq += 1;
            }
            assert_eq!(q.bucket_count(), settled, "resize thrash at seq {seq}");
        }
    }

    #[test]
    fn same_time_batch_leaves_in_seq_order() {
        let mut q = CalendarQueue::new();
        for s in 0..1000u64 {
            q.push(7.25, s, s);
        }
        for want in 0..1000u64 {
            assert_eq!(q.pop(), Some((7.25, want, want)));
        }
    }

    #[test]
    fn push_below_cursor_is_found_first() {
        let mut q = CalendarQueue::new();
        for s in 0..64u64 {
            q.push(100.0 + s as f64, s, s);
        }
        // Advance the cursor past t=50, then push below it.
        assert_eq!(q.pop().map(|(t, _, _)| t), Some(100.0));
        q.push(50.0, 64, 64);
        assert_eq!(q.pop(), Some((50.0, 64, 64)));
    }

    #[test]
    fn for_each_item_visits_everything_and_preserves_order() {
        let mut q = CalendarQueue::new();
        // Enough events to force resizes.
        for s in 0..300u64 {
            q.push(s as f64 * 0.25, s, s);
        }
        let mut seen = Vec::new();
        q.for_each_item(|v| seen.push(*v));
        seen.sort_unstable();
        assert_eq!(seen, (0..300).collect::<Vec<u64>>());
        for want in 0..300u64 {
            assert_eq!(q.pop(), Some((want as f64 * 0.25, want, want)));
        }
    }

    #[test]
    fn one_far_timer_does_not_set_the_bucket_width() {
        // 63 near-term events 20 ns apart beside a purge timer 10 ms
        // out. A plain mean gap (~160 µs, doubled) files all 63 into
        // one bucket; the width must follow the near-term spacing.
        let spacing = 20e-9;
        let mut q = CalendarQueue::new();
        q.push(10e-3, 0, 0);
        for s in 1..64u64 {
            q.push(s as f64 * spacing, s, s);
        }
        q.resize(q.bucket_count());
        assert!(
            q.width <= 10.0 * spacing,
            "width {:.3e} s for a {spacing:.0e} s spacing",
            q.width
        );
        for want in 1..64u64 {
            assert_eq!(q.pop(), Some((want as f64 * spacing, want, want)));
        }
        assert_eq!(q.pop(), Some((10e-3, 0, 0)));
    }

    #[test]
    fn width_follows_the_dequeue_pace() {
        // Timers 1 ms apart and one event train that re-arms itself
        // 10 ns ahead on every pop: the population's spacing says 1 ms,
        // the pace at which events leave says 10 ns. The queue length
        // never changes, so only the periodic check can move the width.
        let pace = 10e-9;
        let mut q = CalendarQueue::new();
        for k in 1..32u64 {
            q.push(k as f64 * 1e-3, k, k);
        }
        q.push(0.0, 0, 0);
        for seq in 32..32 + 4 * RECALIBRATE_POPS {
            let (t, _, item) = q.pop().unwrap();
            assert_eq!(item, 0, "a timer left before the train");
            q.push(t + pace, seq, 0);
        }
        assert!(
            (pace..=10.0 * pace).contains(&q.width),
            "width {:.3e} s for a {pace:.0e} s pace",
            q.width
        );
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nan_time() {
        let mut q = CalendarQueue::new();
        q.push(f64::NAN, 0, ());
    }

    /// The determinism contract of the scheduler swap, checked by
    /// property: over arbitrary interleavings of schedules and steps, the
    /// calendar queue must deliver exactly the `(time, seq)` sequence a
    /// reference binary heap would — including equal-time ties, bounded
    /// pops against a horizon, and pushes below the current cursor.
    mod heap_order {
        use super::super::CalendarQueue;
        use proptest::prelude::*;
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        /// Reference min-queue over `(time, seq)`. Times are non-negative and
        /// finite, so the IEEE bit pattern orders exactly like the float.
        #[derive(Default)]
        struct RefHeap {
            heap: BinaryHeap<Reverse<(u64, u64)>>,
        }

        impl RefHeap {
            fn push(&mut self, time: f64, seq: u64) {
                self.heap.push(Reverse((time.to_bits(), seq)));
            }
            fn pop(&mut self) -> Option<(f64, u64)> {
                self.heap
                    .pop()
                    .map(|Reverse((bits, seq))| (f64::from_bits(bits), seq))
            }
            fn pop_at_or_before(&mut self, horizon: f64) -> Option<(f64, u64)> {
                match self.heap.peek() {
                    Some(&Reverse((bits, _))) if f64::from_bits(bits) <= horizon => self.pop(),
                    _ => None,
                }
            }
        }

        /// Decode a generated `(regime, raw)` pair into an event time. The
        /// regimes deliberately cover the shapes that stress different parts
        /// of the calendar: coarse grids full of exact ties, dense sub-bucket
        /// clusters, and far-future stragglers whole calendar years away.
        fn time_of(regime: u32, raw: u32) -> f64 {
            match regime % 4 {
                0 => (raw % 8) as f64 * 0.5,       // tie-heavy coarse grid
                1 => raw as f64 * 1e-6,            // dense cluster
                2 => 1e7 + (raw % 1000) as f64,    // far-future stragglers
                _ => raw as f64 / u32::MAX as f64, // arbitrary fractions
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Identical `(time, seq)` delivery for every interleaving of
            /// schedule/step/bounded-step, then a full drain.
            #[test]
            fn calendar_delivers_heap_order(
                ops in proptest::collection::vec((0u8..10, 0u32..4, any::<u32>()), 1..400),
            ) {
                let mut cal = CalendarQueue::new();
                let mut reference = RefHeap::default();
                let mut seq = 0u64;

                for (kind, regime, raw) in ops {
                    match kind {
                        // Weighted toward pushes so queues actually grow
                        // through resize thresholds.
                        0..=5 => {
                            let t = time_of(regime, raw);
                            cal.push(t, seq, seq);
                            reference.push(t, seq);
                            seq += 1;
                        }
                        6..=8 => {
                            let got = cal.pop().map(|(t, s, _)| (t, s));
                            prop_assert_eq!(got, reference.pop());
                        }
                        _ => {
                            let horizon = time_of(regime, raw);
                            let got = cal.pop_at_or_before(horizon).map(|(t, s, _)| (t, s));
                            prop_assert_eq!(got, reference.pop_at_or_before(horizon));
                            prop_assert_eq!(cal.min_time(), reference.heap.peek()
                                .map(|&Reverse((bits, _))| f64::from_bits(bits)));
                        }
                    }
                    prop_assert_eq!(cal.len(), reference.heap.len());
                }
                // Full drain must agree to the last event.
                loop {
                    let got = cal.pop().map(|(t, s, _)| (t, s));
                    let want = reference.pop();
                    prop_assert_eq!(got, want);
                    if want.is_none() {
                        break;
                    }
                }
                prop_assert_eq!(cal.len(), 0);
            }
        }
    }
}
