//! # dra-telemetry
//!
//! Observability layer for the DRA reproduction: a handle-based
//! metrics registry, a flight recorder, deterministic packet-lifecycle
//! sampling, the one telemetry document ([`Snapshot`],
//! `dra-telemetry/v2`), a Chrome `trace_event` exporter for Perfetto,
//! and the workspace's JSON layer ([`json`]).
//!
//! ## Architecture
//!
//! All state lives in a **thread-local hub**. The sweep envelope arms
//! a fresh hub around each cell on whichever worker runs it, so
//! per-cell flight recorders and registries fall out of thread
//! locality with zero synchronization on the hot path. A network cell
//! hands its network scope to the hub with [`absorb`]. Each cell's
//! document merges into one afterwards ([`Snapshot::merge`] is
//! commutative + associative, so worker count cannot change the merged
//! bytes).
//!
//! Instrumented crates call the free functions in this module
//! (`counter_add`, `event`, `mark_*`, …) unconditionally: collection
//! is a runtime switch, not a build option. On a thread without an
//! [`enable`] call every function is one load of a destructor-free
//! thread-local flag and a not-taken branch; the hub itself is only
//! touched once the flag is set.
//!
//! ## Determinism contract
//!
//! Telemetry observes, never steers: no function here consumes
//! simulation RNG, schedules DES events, or feeds anything back into
//! the model. Sampling decisions are a pure hash of the packet id
//! ([`lifecycle::sample_hash`], the same SplitMix64 mixer
//! `dra-campaign` derives seeds from). A simulation therefore runs
//! bit-identically with telemetry enabled, and
//! `results/faceoff.json` stays byte-identical.

pub mod hist;
pub mod json;
pub mod lifecycle;
pub mod netscope;
pub mod recorder;
pub mod snapshot;
pub mod trace;

pub use hist::LogHistogram;
pub use lifecycle::{is_sampled, sample_hash};
pub use netscope::{
    EngineProfile, FlowSpan, ForensicEntry, ForensicKind, NetScope, NodeCounters, SpanKind,
    NET_DROP_CAUSES,
};
pub use recorder::{Event, EventKind, Ring};
pub use snapshot::{Anomaly, RouterScope, Snapshot, SNAPSHOT_FORMAT};
pub use trace::{chrome_trace_json, TraceEvent};

use lifecycle::Tracker;
use std::cell::{Cell, RefCell};
use std::sync::Once;

/// Handle to a registered counter (index into the hub's table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(pub u32);

/// Handle to a registered gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(pub u32);

/// Handle to a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistId(pub u32);

/// Well-known metric handles, pre-registered by [`enable`] so every
/// hot-path update is a single indexed add.
pub mod ids {
    use super::{CounterId, GaugeId, HistId};

    /// DES events executed.
    pub const DES_EVENTS: CounterId = CounterId(0);
    /// DES events scheduled.
    pub const DES_SCHEDULED: CounterId = CounterId(1);
    /// Packets offered at ingress.
    pub const ARRIVALS: CounterId = CounterId(2);
    /// FIB lookups performed (batched lookups count per packet).
    pub const FIB_LOOKUPS: CounterId = CounterId(3);
    /// Cells enqueued into VOQs.
    pub const VOQ_ENQUEUED_CELLS: CounterId = CounterId(4);
    /// iSLIP input→output grants issued.
    pub const ISLIP_GRANTS: CounterId = CounterId(5);
    /// Cells that crossed the fabric.
    pub const CELLS_SWITCHED: CounterId = CounterId(6);
    /// Packets completed by egress reassembly.
    pub const PACKETS_REASSEMBLED: CounterId = CounterId(7);
    /// Packets delivered.
    pub const DELIVERED: CounterId = CounterId(8);
    /// Packets dropped (all causes).
    pub const DROPPED: CounterId = CounterId(9);
    /// Packets that took at least one EIB hop.
    pub const EIB_DETOURS: CounterId = CounterId(10);
    /// EIB control-line transmission attempts.
    pub const EIB_CONTROL_ATTEMPTS: CounterId = CounterId(11);
    /// EIB control-line collisions.
    pub const EIB_COLLISIONS: CounterId = CounterId(12);

    /// Latest sim-time seen (gauges merge by max).
    pub const SIM_TIME: GaugeId = GaugeId(0);
    /// Peak DES queue length.
    pub const QUEUE_LEN: GaugeId = GaugeId(1);
    /// Peak calendar-queue bucket count.
    pub const CALENDAR_BUCKETS: GaugeId = GaugeId(2);

    /// Ingress processing + FIB lookup time.
    pub const H_LOOKUP: HistId = HistId(0);
    /// VOQ wait before the first fabric grant.
    pub const H_VOQ_WAIT: HistId = HistId(1);
    /// First-to-last-cell crossbar time.
    pub const H_SWITCHING: HistId = HistId(2);
    /// Accumulated EIB occupancy.
    pub const H_EIB: HistId = HistId(3);
    /// Last cell to delivery (reassembly + egress).
    pub const H_REASSEMBLY: HistId = HistId(4);
    /// End-to-end packet latency.
    pub const H_TOTAL: HistId = HistId(5);
}

const COUNTER_NAMES: [&str; 13] = [
    "des.events",
    "des.scheduled",
    "router.arrivals",
    "router.fib_lookups",
    "router.voq_enqueued_cells",
    "router.islip_grants",
    "router.cells_switched",
    "router.packets_reassembled",
    "router.delivered",
    "router.dropped",
    "eib.detours",
    "eib.control_attempts",
    "eib.collisions",
];

const GAUGE_NAMES: [&str; 3] = [
    "des.sim_time",
    "des.queue_len_peak",
    "des.calendar_buckets_peak",
];

const HIST_NAMES: [&str; 6] = [
    "latency.lookup",
    "latency.voq_wait",
    "latency.switching",
    "latency.eib",
    "latency.reassembly",
    "latency.total",
];

/// Latency histogram layout: 1 ns to 1 s, 9 buckets per decade.
const HIST_LO: f64 = 1e-9;
const HIST_HI: f64 = 1.0;
const HIST_BUCKETS: usize = 81;

/// Runtime configuration for [`enable`].
#[derive(Debug, Clone)]
pub struct Config {
    /// Sample one packet in `sample_every` for lifecycle tracking
    /// (0 disables sampling; counters and the recorder still run).
    pub sample_every: u64,
    /// Flight-recorder window size in events.
    pub ring_capacity: usize,
    /// Collect Chrome trace events for sampled packets.
    pub collect_trace: bool,
    /// Hard cap on buffered trace events (excess is counted, not kept).
    pub trace_limit: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            sample_every: 64,
            ring_capacity: 1024,
            collect_trace: false,
            trace_limit: 200_000,
        }
    }
}

struct Hub {
    now: f64,
    sample_every: u64,
    counters: Vec<u64>,
    gauges: Vec<f64>,
    hists: Vec<LogHistogram>,
    extra_counter_names: Vec<&'static str>,
    ring: Ring,
    tracker: Tracker,
    anomaly: Option<Anomaly>,
    /// Scopes handed over by [`absorb`].
    absorbed: Snapshot,
    collect_trace: bool,
    trace: Vec<TraceEvent>,
    trace_limit: usize,
    trace_dropped: u64,
}

impl Hub {
    fn new(cfg: &Config) -> Self {
        Hub {
            now: 0.0,
            sample_every: cfg.sample_every,
            counters: vec![0; COUNTER_NAMES.len()],
            gauges: vec![0.0; GAUGE_NAMES.len()],
            hists: (0..HIST_NAMES.len())
                .map(|_| LogHistogram::new(HIST_LO, HIST_HI, HIST_BUCKETS))
                .collect(),
            extra_counter_names: Vec::new(),
            ring: Ring::new(cfg.ring_capacity),
            tracker: Tracker::default(),
            anomaly: None,
            absorbed: Snapshot::default(),
            collect_trace: cfg.collect_trace,
            trace: Vec::new(),
            trace_limit: cfg.trace_limit,
            trace_dropped: 0,
        }
    }

    fn counter_name(&self, i: usize) -> &'static str {
        if i < COUNTER_NAMES.len() {
            COUNTER_NAMES[i]
        } else {
            self.extra_counter_names[i - COUNTER_NAMES.len()]
        }
    }

    fn push_trace(&mut self, ev: TraceEvent) {
        if self.trace.len() < self.trace_limit {
            self.trace.push(ev);
        } else {
            self.trace_dropped += 1;
        }
    }
}

thread_local! {
    static HUB: RefCell<Option<Hub>> = const { RefCell::new(None) };
    /// Mirror of `HUB.is_some()`, kept by [`enable`]/[`disable`]. The
    /// hub has a destructor, so every access to it goes through the
    /// lazy thread-local registration path and a `RefCell` borrow;
    /// this flag has none, so the collection-off check on the hot path
    /// is a plain thread-local load.
    static ON: Cell<bool> = const { Cell::new(false) };
}

static PANIC_HOOK: Once = Once::new();

/// Install the process-wide panic hook that dumps the panicking
/// thread's flight recorder to stderr before unwinding.
fn install_panic_hook() {
    PANIC_HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            // The hook runs on the panicking thread, so its
            // thread-local hub is exactly the right one to dump.
            // try_* everywhere: panicking inside a panic hook aborts.
            let _ = HUB.try_with(|cell| {
                if let Ok(hub) = cell.try_borrow() {
                    if let Some(hub) = hub.as_ref() {
                        if !hub.ring.is_empty() {
                            eprintln!("[dra-telemetry] panic — dumping {}", hub.ring.dump());
                        }
                    }
                }
            });
            prev(info);
        }));
    });
}

/// Turn telemetry on for this thread with a fresh hub.
pub fn enable(cfg: Config) {
    install_panic_hook();
    HUB.with(|cell| *cell.borrow_mut() = Some(Hub::new(&cfg)));
    ON.with(|on| on.set(true));
}

/// Turn telemetry off for this thread, discarding all state.
pub fn disable() {
    ON.with(|on| on.set(false));
    HUB.with(|cell| *cell.borrow_mut() = None);
}

/// Is telemetry enabled on this thread?
#[inline]
pub fn enabled() -> bool {
    ON.with(Cell::get)
}

/// Run `f` on this thread's hub, or return `None` without touching it
/// when telemetry is off.
#[inline]
fn with_hub<R>(f: impl FnOnce(&mut Hub) -> R) -> Option<R> {
    if enabled() {
        with_live_hub(f)
    } else {
        None
    }
}

/// The collection-on half of [`with_hub`], kept out of line so the
/// inlined collection-off check stays one load and one branch at every
/// hook site.
#[cold]
#[inline(never)]
fn with_live_hub<R>(f: impl FnOnce(&mut Hub) -> R) -> Option<R> {
    HUB.with(|cell| cell.borrow_mut().as_mut().map(f))
}

/// Register an additional counter (e.g. a bench-specific one).
/// Telemetry must be enabled; ids stay valid until [`disable`].
pub fn register_counter(name: &'static str) -> Option<CounterId> {
    with_hub(|h| {
        h.extra_counter_names.push(name);
        h.counters.push(0);
        CounterId((h.counters.len() - 1) as u32)
    })
}

/// Add `n` to a counter — a single indexed add on the hot path.
#[inline]
pub fn counter_add(id: CounterId, n: u64) {
    with_hub(|h| h.counters[id.0 as usize] += n);
}

/// Set a gauge to `v`.
#[inline]
pub fn gauge_set(id: GaugeId, v: f64) {
    with_hub(|h| h.gauges[id.0 as usize] = v);
}

/// Raise a gauge to `v` if `v` is larger (peak tracking).
#[inline]
pub fn gauge_max(id: GaugeId, v: f64) {
    with_hub(|h| {
        let g = &mut h.gauges[id.0 as usize];
        if v > *g {
            *g = v;
        }
    });
}

/// Record `x` into a histogram.
#[inline]
pub fn hist_record(id: HistId, x: f64) {
    with_hub(|h| h.hists[id.0 as usize].record(x));
}

/// The DES executive reports each delivered event here: advances the
/// hub's sim-time stamp (used by every subsequent [`event`]) and
/// updates the kernel counters/gauges.
#[inline]
pub fn des_event(now: f64, queue_len: usize, calendar_buckets: usize) {
    with_hub(|h| {
        h.now = now;
        h.counters[ids::DES_EVENTS.0 as usize] += 1;
        h.gauges[ids::SIM_TIME.0 as usize] = now;
        let ql = queue_len as f64;
        if ql > h.gauges[ids::QUEUE_LEN.0 as usize] {
            h.gauges[ids::QUEUE_LEN.0 as usize] = ql;
        }
        let cb = calendar_buckets as f64;
        if cb > h.gauges[ids::CALENDAR_BUCKETS.0 as usize] {
            h.gauges[ids::CALENDAR_BUCKETS.0 as usize] = cb;
        }
    });
}

/// The DES executive reports each scheduled event here.
#[inline]
pub fn des_scheduled() {
    with_hub(|h| h.counters[ids::DES_SCHEDULED.0 as usize] += 1);
}

/// Append a flight-recorder event stamped with the hub's current
/// sim-time.
#[inline]
pub fn event(kind: EventKind, packet: u64, a: u32, b: u32) {
    with_hub(|h| {
        let t = h.now;
        h.ring.push(Event {
            t,
            kind,
            a,
            b,
            packet,
        });
    });
}

/// Is this packet in the lifecycle sample? (false when disabled)
#[inline]
pub fn sampled(packet: u64) -> bool {
    with_hub(|h| is_sampled(packet, h.sample_every)).unwrap_or(false)
}

/// Begin lifecycle tracking for a packet if it is sampled.
#[inline]
pub fn track_arrival(packet: u64, ingress: u32, ip_bytes: u32) {
    with_hub(|h| {
        if is_sampled(packet, h.sample_every) {
            let now = h.now;
            h.tracker.begin(packet, ingress, ip_bytes, now);
        }
    });
}

/// Mark ingress processing + FIB lookup complete.
#[inline]
pub fn mark_lookup_done(packet: u64) {
    with_hub(|h| {
        let now = h.now;
        if let Some(t) = h.tracker.get_mut(packet) {
            t.lookup_done = now;
        }
    });
}

/// Mark the packet's cells entering a VOQ.
#[inline]
pub fn mark_voq_enqueue(packet: u64) {
    with_hub(|h| {
        let now = h.now;
        if let Some(t) = h.tracker.get_mut(packet) {
            t.voq_enqueued = now;
        }
    });
}

/// Mark one of the packet's cells crossing the fabric (first call
/// anchors the switching span, every call extends it).
#[inline]
pub fn mark_cell_switched(packet: u64) {
    with_hub(|h| {
        let now = h.now;
        if let Some(t) = h.tracker.get_mut(packet) {
            if !t.switch_start.is_finite() {
                t.switch_start = now;
            }
            t.switch_end = now;
        }
    });
}

/// Account an EIB hop occupying the bus for `dur` seconds starting at
/// `start`.
#[inline]
pub fn mark_eib_hop(packet: u64, start: f64, dur: f64) {
    with_hub(|h| {
        if let Some(t) = h.tracker.get_mut(packet) {
            if !t.eib_start.is_finite() {
                t.eib_start = start;
            }
            t.eib += dur;
        }
    });
}

/// Packet delivered: resolve its lifecycle into the latency
/// decomposition histograms and (optionally) Chrome trace spans.
pub fn finish_packet(packet: u64) {
    with_hub(|h| {
        let now = h.now;
        let Some((track, d)) = h.tracker.finish(packet, now) else {
            return;
        };
        h.hists[ids::H_LOOKUP.0 as usize].record(d.lookup);
        h.hists[ids::H_VOQ_WAIT.0 as usize].record(d.voq_wait);
        h.hists[ids::H_SWITCHING.0 as usize].record(d.switching);
        h.hists[ids::H_EIB.0 as usize].record(d.eib);
        h.hists[ids::H_REASSEMBLY.0 as usize].record(d.reassembly);
        h.hists[ids::H_TOTAL.0 as usize].record(d.total);
        if h.collect_trace {
            let pid = track.ingress;
            let tid = packet as u32;
            let us = 1e6;
            let span = |name, t0: f64, dur: f64| TraceEvent {
                name,
                ph: 'X',
                ts_us: t0 * us,
                dur_us: dur * us,
                pid,
                tid,
                packet,
                id: 0,
            };
            h.push_trace(span("packet", track.arrived, d.total));
            if d.lookup > 0.0 {
                h.push_trace(span("lookup", track.arrived, d.lookup));
            }
            if d.voq_wait > 0.0 {
                h.push_trace(span("voq-wait", track.voq_enqueued, d.voq_wait));
            }
            if d.switching > 0.0 {
                h.push_trace(span("switching", track.switch_start, d.switching));
            }
            if d.eib > 0.0 && track.eib_start.is_finite() {
                h.push_trace(span("eib", track.eib_start, d.eib));
            }
            if d.reassembly > 0.0 && track.switch_end.is_finite() {
                h.push_trace(span("reassembly", track.switch_end, d.reassembly));
            }
        }
    });
}

/// Packet dropped: recorder event, drop counter, lifecycle cleanup,
/// and an instant trace marker. `cause_name` should be the stable
/// `DropCause` name; `cause_index` its index.
pub fn packet_dropped(packet: u64, cause_index: u32, lc: u32, cause_name: &'static str) {
    with_hub(|h| {
        let t = h.now;
        h.counters[ids::DROPPED.0 as usize] += 1;
        h.ring.push(Event {
            t,
            kind: EventKind::Drop,
            a: cause_index,
            b: lc,
            packet,
        });
        h.tracker.drop_packet(packet);
        if h.collect_trace {
            h.push_trace(TraceEvent {
                name: drop_trace_name(cause_name),
                ph: 'i',
                ts_us: t * 1e6,
                dur_us: 0.0,
                pid: lc,
                tid: packet as u32,
                packet,
                id: 0,
            });
        }
    });
}

/// Map a `DropCause` name to a static trace label without allocating
/// per event.
fn drop_trace_name(cause_name: &str) -> &'static str {
    match cause_name {
        "ingress-down" => "drop:ingress-down",
        "egress-down" => "drop:egress-down",
        "fabric-down" => "drop:fabric-down",
        "voq-overflow" => "drop:voq-overflow",
        "reassembly-timeout" => "drop:reassembly-timeout",
        "no-route" => "drop:no-route",
        "eib-oversubscribed" => "drop:eib-oversubscribed",
        "no-coverage" => "drop:no-coverage",
        _ => "drop",
    }
}

/// Trip the anomaly trigger: the first call freezes a copy of the
/// flight-recorder window for the snapshot; later calls are no-ops.
pub fn anomaly(reason: &'static str) {
    with_hub(|h| {
        if h.anomaly.is_none() {
            h.anomaly = Some(Anomaly {
                reason: reason.to_string(),
                t: h.now,
                events: h.ring.recent().copied().collect(),
            });
        }
    });
}

/// Has the anomaly trigger tripped?
pub fn anomaly_tripped() -> bool {
    with_hub(|h| h.anomaly.is_some()).unwrap_or(false)
}

/// On-demand flight-recorder dump (None when disabled).
pub fn ring_dump() -> Option<String> {
    with_hub(|h| h.ring.dump())
}

/// The lifecycle sampling modulus of this thread's hub (None when
/// disabled): a network cell samples its flow spans at the same rate.
pub fn sample_every() -> Option<u64> {
    with_hub(|h| h.sample_every)
}

/// Merge a scope collected outside the hub (a network cell's
/// per-replication export, `cells_merged` 0) into this thread's hub,
/// and keep its trace events (uncapped: they are already sampled) when
/// the hub collects a trace. No-op when disabled.
pub fn absorb(part: &Snapshot, trace: Vec<TraceEvent>) {
    with_hub(|h| {
        h.absorbed.merge(part);
        if h.collect_trace {
            h.trace.extend(trace);
        }
    });
}

/// This thread's hub as one cell's document (None when disabled). The
/// router scope is present once any router-scope counter moved; a
/// network cell drives none, so its document carries only what it
/// [`absorb`]ed. The hub keeps accumulating; callers that want
/// per-cell documents re-[`enable`] between cells.
pub fn snapshot() -> Option<Snapshot> {
    with_hub(|h| {
        let router = h.counters.iter().any(|&c| c > 0).then(|| RouterScope {
            sample_every: h.sample_every,
            sampled_packets: h.tracker.sampled(),
            open_tracks: h.tracker.open() as u64,
            counters: h
                .counters
                .iter()
                .enumerate()
                .map(|(i, &v)| (h.counter_name(i), v))
                .collect(),
            gauges: GAUGE_NAMES.iter().copied().zip(h.gauges.clone()).collect(),
            hists: HIST_NAMES.iter().copied().zip(h.hists.clone()).collect(),
            ring_appended: h.ring.appended(),
            ring_capacity: h.ring.capacity() as u64,
        });
        let mut doc = Snapshot {
            cells_merged: 1,
            router,
            anomaly: h.anomaly.clone(),
            ..Snapshot::default()
        };
        doc.merge(&h.absorbed);
        doc
    })
}

/// Drain the buffered Chrome trace events (empty when disabled or
/// when trace collection is off).
pub fn take_trace_events() -> Vec<TraceEvent> {
    with_hub(|h| std::mem::take(&mut h.trace)).unwrap_or_default()
}

/// Trace events discarded after the buffer hit its cap.
pub fn trace_dropped() -> u64 {
    with_hub(|h| h.trace_dropped).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh(collect_trace: bool) -> Config {
        Config {
            sample_every: 1,
            ring_capacity: 8,
            collect_trace,
            trace_limit: 100,
        }
    }

    #[test]
    fn disabled_is_inert() {
        disable();
        assert!(!enabled());
        counter_add(ids::ARRIVALS, 1);
        event(EventKind::Arrival, 1, 0, 0);
        assert!(snapshot().is_none());
        assert!(!sampled(0));
    }

    #[test]
    fn full_lifecycle_roundtrip() {
        enable(fresh(true));
        des_event(1.0, 3, 4);
        counter_add(ids::ARRIVALS, 1);
        track_arrival(42, 2, 1500);
        event(EventKind::Arrival, 42, 2, 1500);
        des_event(1.1, 2, 4);
        mark_lookup_done(42);
        mark_voq_enqueue(42);
        des_event(1.2, 2, 4);
        mark_cell_switched(42);
        des_event(1.3, 1, 4);
        mark_cell_switched(42);
        des_event(1.4, 0, 4);
        finish_packet(42);

        let doc = snapshot().expect("enabled");
        assert_eq!(doc.cells_merged, 1);
        let snap = doc.router.expect("router hooks fired");
        assert_eq!(snap.counters[ids::ARRIVALS.0 as usize].1, 1);
        assert_eq!(snap.counters[ids::DES_EVENTS.0 as usize].1, 5);
        assert_eq!(snap.sampled_packets, 1);
        assert_eq!(snap.open_tracks, 0);
        let (name, total) = &snap.hists[ids::H_TOTAL.0 as usize];
        assert_eq!(*name, "latency.total");
        assert_eq!(total.count(), 1);

        let trace = take_trace_events();
        assert!(trace.iter().any(|e| e.name == "packet"));
        assert!(trace.iter().any(|e| e.name == "switching"));
        disable();
    }

    #[test]
    fn anomaly_freezes_ring_window() {
        enable(fresh(false));
        for i in 0..20u64 {
            des_event(i as f64, 0, 0);
            event(EventKind::Arrival, i, 0, 0);
        }
        assert!(!anomaly_tripped());
        packet_dropped(19, 6, 0, "eib-oversubscribed");
        anomaly("first eib-oversubscribed drop");
        anomaly("second call must not overwrite");
        let snap = snapshot().unwrap();
        let a = snap.anomaly.expect("tripped");
        assert_eq!(a.reason, "first eib-oversubscribed drop");
        // Window = ring capacity (8): the drop plus the 7 most recent.
        assert_eq!(a.events.len(), 8);
        assert_eq!(a.events.last().unwrap().kind, EventKind::Drop);
        disable();
    }

    #[test]
    fn registered_counters_appear_in_snapshot() {
        enable(fresh(false));
        let id = register_counter("bench.iterations").unwrap();
        counter_add(id, 7);
        let snap = snapshot().unwrap().router.unwrap();
        assert_eq!(*snap.counters.last().unwrap(), ("bench.iterations", 7));
        disable();
    }

    #[test]
    fn absorbed_network_scope_joins_the_cell_document() {
        enable(fresh(true));
        assert_eq!(sample_every(), Some(1));
        // No router hook fired yet: nothing but the cell count.
        let empty = snapshot().unwrap();
        assert!(empty.router.is_none() && empty.network.is_none());
        let part = Snapshot {
            network: Some(NetScope::default()),
            ..Snapshot::default()
        };
        let arrow = TraceEvent {
            name: "hop",
            ph: 's',
            ts_us: 0.0,
            dur_us: 0.0,
            pid: 0,
            tid: 0,
            packet: 0,
            id: 1,
        };
        absorb(&part, vec![arrow.clone()]);
        absorb(&part, vec![arrow]);
        let doc = snapshot().unwrap();
        assert_eq!(doc.cells_merged, 1, "replication parts are not cells");
        assert!(doc.router.is_none() && doc.network.is_some());
        assert_eq!(take_trace_events().len(), 2);
        disable();
        assert_eq!(sample_every(), None);
    }
}
