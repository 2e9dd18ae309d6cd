//! Network-scope telemetry: per-router counters, multi-hop flow
//! spans, a fault-forensics ledger, and the network engine profile.
//!
//! The router scope of a [`Snapshot`](crate::Snapshot) stops at the
//! chassis boundary; [`NetScope`] is its network-of-routers sibling,
//! produced by `dra-topo` runs, and [`EngineProfile`] fills the
//! document's non-deterministic `profile` member.
//!
//! Everything in a [`NetScope`] is derived from sim-time ordered data
//! and is byte-identical at any `--sim-threads` and any worker count.
//! Its lists merge by concatenate-then-canonical-sort (a multiset
//! union) and its counters by addition. The engine profile (wall-clock,
//! barrier stalls, per-LP load) is not deterministic.

use crate::json::Json;

/// Number of network drop causes (`NetDropCause` has 8 variants; the
/// producer supplies the names so this crate stays model-agnostic).
pub const NET_DROP_CAUSES: usize = 8;

/// Per-router event counters, indexed by node id in
/// [`NetScope::nodes`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeCounters {
    /// Packets that entered this router (host injection or link).
    pub transits: u64,
    /// Transits that needed fault-coverage spare capacity.
    pub covered: u64,
    /// Packets forwarded out a link.
    pub forwards: u64,
    /// Packets delivered to a host port here.
    pub delivered: u64,
    /// Scripted fault/repair actions applied at this router.
    pub actions: u64,
    /// Drops at this router, by `NetDropCause` index.
    pub drops: [u64; NET_DROP_CAUSES],
}

impl NodeCounters {
    /// Pairwise-add another node's counters into this one.
    pub fn add(&mut self, o: &NodeCounters) {
        self.transits += o.transits;
        self.covered += o.covered;
        self.forwards += o.forwards;
        self.delivered += o.delivered;
        self.actions += o.actions;
        for (d, od) in self.drops.iter_mut().zip(&o.drops) {
            *d += od;
        }
    }

    /// Total drops across all causes.
    pub fn dropped_total(&self) -> u64 {
        self.drops.iter().sum()
    }
}

/// What a [`FlowSpan`] represents on a router's timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum SpanKind {
    /// Time spent inside a router (transit + coverage + fabric).
    Transit = 0,
    /// Time on the wire between two routers (`aux` = egress port).
    Link = 1,
    /// Delivery to the destination host (instant; `t0 == t1`).
    Deliver = 2,
    /// Drop (instant; `aux` = `NetDropCause` index).
    Drop = 3,
}

impl SpanKind {
    /// Stable lowercase name used in exported JSON.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Transit => "transit",
            SpanKind::Link => "link",
            SpanKind::Deliver => "deliver",
            SpanKind::Drop => "drop",
        }
    }
}

/// One hop-resolved segment of a sampled packet's life, reconstructed
/// from the provenance chain / hop log.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowSpan {
    /// Packet id.
    pub packet: u64,
    /// Flow the packet belongs to.
    pub flow: u32,
    /// Router the segment starts at.
    pub node: u32,
    /// Segment start, sim-time seconds.
    pub t0: f64,
    /// Segment end, sim-time seconds (`>= t0`).
    pub t1: f64,
    /// Segment kind.
    pub kind: SpanKind,
    /// Kind-specific payload (see [`SpanKind`]).
    pub aux: u32,
}

impl FlowSpan {
    /// Total canonical order (packet, then time, then discriminators):
    /// producers sort with this so a span list's bytes depend only on
    /// the span *multiset*, never on collection order.
    pub fn cmp_canonical(&self, o: &FlowSpan) -> std::cmp::Ordering {
        self.packet
            .cmp(&o.packet)
            .then(self.t0.total_cmp(&o.t0))
            .then(self.t1.total_cmp(&o.t1))
            .then(self.kind.cmp(&o.kind))
            .then(self.node.cmp(&o.node))
            .then(self.flow.cmp(&o.flow))
            .then(self.aux.cmp(&o.aux))
    }
}

/// What a [`ForensicEntry`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum ForensicKind {
    /// A scripted `TopoFaultSpec` action fired (SRU kill, link cut,
    /// repair). `label` names it; `drops_at` is the cumulative
    /// per-cause drop census at that instant.
    Action = 0,
    /// A flow stopped delivering: its first drop after a delivery (or
    /// ever). `cause` is the `NetDropCause` index.
    FlowDown = 1,
    /// A flow resumed delivering after being down.
    FlowUp = 2,
}

impl ForensicKind {
    /// Stable lowercase name used in exported JSON.
    pub fn name(self) -> &'static str {
        match self {
            ForensicKind::Action => "action",
            ForensicKind::FlowDown => "flow_down",
            ForensicKind::FlowUp => "flow_up",
        }
    }
}

/// One entry of the fault-forensics ledger: a sim-time timeline
/// correlating scripted fault actions with per-flow availability
/// transitions and the drop census.
#[derive(Debug, Clone, PartialEq)]
pub struct ForensicEntry {
    /// Sim-time of the event, seconds.
    pub t: f64,
    /// Entry kind.
    pub kind: ForensicKind,
    /// Flow id (`u32::MAX` for [`ForensicKind::Action`]).
    pub flow: u32,
    /// Drop-cause index for [`ForensicKind::FlowDown`], else `u32::MAX`.
    pub cause: u32,
    /// Action label (empty for flow transitions).
    pub label: String,
    /// Cumulative drops by cause at `t` (actions only; zeros otherwise).
    pub drops_at: [u64; NET_DROP_CAUSES],
}

impl ForensicEntry {
    /// Total canonical order (sim-time first) — see
    /// [`FlowSpan::cmp_canonical`].
    pub fn cmp_canonical(&self, o: &ForensicEntry) -> std::cmp::Ordering {
        self.t
            .total_cmp(&o.t)
            .then(self.kind.cmp(&o.kind))
            .then(self.flow.cmp(&o.flow))
            .then(self.cause.cmp(&o.cause))
            .then(self.label.cmp(&o.label))
            .then(self.drops_at.cmp(&o.drops_at))
    }
}

/// Engine profile: wall-clock and load measurements from the
/// network engine. **Non-deterministic** — lives only in the
/// document's `profile` member.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineProfile {
    /// Parallel runs folded into this profile.
    pub runs: u64,
    /// Worker threads (max across runs).
    pub threads: u64,
    /// Barrier windows executed (sum across runs).
    pub windows: u64,
    /// Cross-LP messages exchanged (sum).
    pub cross_messages: u64,
    /// Wall-clock spent inside the windowed engine, nanoseconds (sum).
    pub wall_ns: u64,
    /// Wall-clock all threads spent stalled at barriers, ns (sum).
    pub barrier_wait_ns: u64,
    /// Windows in which at least one LP processed an event (sum).
    pub nonempty_windows: u64,
    /// Sum over windows of the busiest LP's event count — the serial
    /// critical path under perfect balance.
    pub window_max_events_sum: u64,
    /// Events processed per LP (pairwise-added; shorter runs extend
    /// with zeros, so positions only align within one topology).
    pub lp_events: Vec<u64>,
    /// Windows in which each LP processed at least one event.
    pub lp_busy_windows: Vec<u64>,
    /// Smallest per-LP lookahead seen, seconds.
    pub lookahead_min_s: f64,
    /// Largest per-LP lookahead seen, seconds.
    pub lookahead_max_s: f64,
    /// Sum of per-LP lookaheads (mean = sum / lps).
    pub lookahead_sum_s: f64,
    /// LP-lookahead samples behind the min/max/sum.
    pub lookahead_lps: u64,
}

impl Default for EngineProfile {
    fn default() -> Self {
        EngineProfile {
            runs: 0,
            threads: 0,
            windows: 0,
            cross_messages: 0,
            wall_ns: 0,
            barrier_wait_ns: 0,
            nonempty_windows: 0,
            window_max_events_sum: 0,
            lp_events: Vec::new(),
            lp_busy_windows: Vec::new(),
            lookahead_min_s: f64::INFINITY,
            lookahead_max_s: 0.0,
            lookahead_sum_s: 0.0,
            lookahead_lps: 0,
        }
    }
}

fn add_extend(dst: &mut Vec<u64>, src: &[u64]) {
    if dst.len() < src.len() {
        dst.resize(src.len(), 0);
    }
    for (d, s) in dst.iter_mut().zip(src) {
        *d += s;
    }
}

impl EngineProfile {
    /// Fold another run's profile into this one.
    pub fn merge(&mut self, o: &EngineProfile) {
        self.runs += o.runs;
        self.threads = self.threads.max(o.threads);
        self.windows += o.windows;
        self.cross_messages += o.cross_messages;
        self.wall_ns += o.wall_ns;
        self.barrier_wait_ns += o.barrier_wait_ns;
        self.nonempty_windows += o.nonempty_windows;
        self.window_max_events_sum += o.window_max_events_sum;
        add_extend(&mut self.lp_events, &o.lp_events);
        add_extend(&mut self.lp_busy_windows, &o.lp_busy_windows);
        self.lookahead_min_s = self.lookahead_min_s.min(o.lookahead_min_s);
        self.lookahead_max_s = self.lookahead_max_s.max(o.lookahead_max_s);
        self.lookahead_sum_s += o.lookahead_sum_s;
        self.lookahead_lps += o.lookahead_lps;
    }

    /// Total events processed across all LPs.
    pub fn events_total(&self) -> u64 {
        self.lp_events.iter().sum()
    }

    /// Busiest LP's event count.
    pub fn lp_events_max(&self) -> u64 {
        self.lp_events.iter().copied().max().unwrap_or(0)
    }

    /// Load imbalance: max LP events over mean LP events (1.0 =
    /// perfectly balanced; 0.0 when no events were processed).
    pub fn load_imbalance(&self) -> f64 {
        let n = self.lp_events.len() as f64;
        let total = self.events_total() as f64;
        if n == 0.0 || total == 0.0 {
            return 0.0;
        }
        self.lp_events_max() as f64 / (total / n)
    }
}

impl EngineProfile {
    pub(crate) fn to_json(&self) -> Json {
        let (lo, mean, hi) = if self.lookahead_lps == 0 {
            (0.0, 0.0, 0.0)
        } else {
            (
                self.lookahead_min_s,
                self.lookahead_sum_s / self.lookahead_lps as f64,
                self.lookahead_max_s,
            )
        };
        let lp_events = self.lp_events.iter().take(LP_EVENTS_IN_JSON);
        Json::obj(vec![
            ("runs", Json::uint(self.runs)),
            ("threads", Json::uint(self.threads)),
            ("windows", Json::uint(self.windows)),
            ("nonempty_windows", Json::uint(self.nonempty_windows)),
            ("cross_messages", Json::uint(self.cross_messages)),
            ("wall_ns", Json::uint(self.wall_ns)),
            ("barrier_wait_ns", Json::uint(self.barrier_wait_ns)),
            (
                "window_max_events_sum",
                Json::uint(self.window_max_events_sum),
            ),
            ("lp_count", Json::uint(self.lp_events.len() as u64)),
            ("events_total", Json::uint(self.events_total())),
            ("lp_events_max", Json::uint(self.lp_events_max())),
            ("load_imbalance", Json::Num(self.load_imbalance())),
            (
                "busy_windows_total",
                Json::uint(self.lp_busy_windows.iter().sum()),
            ),
            (
                "lookahead_s",
                Json::obj(vec![
                    ("min", Json::Num(lo)),
                    ("mean", Json::Num(mean)),
                    ("max", Json::Num(hi)),
                ]),
            ),
            (
                "lp_events_truncated",
                Json::Bool(self.lp_events.len() > LP_EVENTS_IN_JSON),
            ),
            (
                "lp_events",
                Json::Arr(lp_events.map(|&e| Json::uint(e)).collect()),
            ),
        ])
    }
}

/// Per-LP event counts serialized into JSON before truncation.
const LP_EVENTS_IN_JSON: usize = 256;

/// Flow spans serialized into JSON before truncation (the full list
/// stays available in the struct and feeds the Perfetto exporter).
const SPANS_IN_JSON: usize = 2048;

/// The network scope of a [`Snapshot`](crate::Snapshot): what the
/// `dra-topo` cells merged into it saw, router by router.
#[derive(Debug, Clone, Default)]
pub struct NetScope {
    /// `NetDropCause` names, drop-index order (producer-supplied).
    pub drop_causes: Vec<&'static str>,
    /// Per-router counters, indexed by node id.
    pub nodes: Vec<NodeCounters>,
    /// Fault-forensics ledger, canonical sim-time order.
    pub forensics: Vec<ForensicEntry>,
    /// Hop-resolved spans of sampled packets, canonical order.
    pub spans: Vec<FlowSpan>,
}

impl NetScope {
    /// # Panics
    /// Panics if both scopes name drop causes and the names differ
    /// (scopes must come from the same build).
    pub(crate) fn merge(&mut self, other: &NetScope) {
        if self.drop_causes.is_empty() {
            self.drop_causes = other.drop_causes.clone();
        } else if !other.drop_causes.is_empty() {
            assert_eq!(
                self.drop_causes, other.drop_causes,
                "Snapshot::merge: drop-cause registries differ"
            );
        }
        if self.nodes.len() < other.nodes.len() {
            self.nodes
                .resize(other.nodes.len(), NodeCounters::default());
        }
        for (n, on) in self.nodes.iter_mut().zip(&other.nodes) {
            n.add(on);
        }
        // Concatenate + canonical sort = multiset union: the result
        // depends only on the union of entries, never on merge order.
        self.forensics.extend(other.forensics.iter().cloned());
        self.forensics
            .sort_unstable_by(ForensicEntry::cmp_canonical);
        self.spans.extend(other.spans.iter().copied());
        self.spans.sort_unstable_by(FlowSpan::cmp_canonical);
    }

    pub(crate) fn to_json(&self) -> Json {
        let node = |n: &NodeCounters| {
            Json::obj(vec![
                ("transits", Json::uint(n.transits)),
                ("covered", Json::uint(n.covered)),
                ("forwards", Json::uint(n.forwards)),
                ("delivered", Json::uint(n.delivered)),
                ("actions", Json::uint(n.actions)),
                (
                    "drops",
                    Json::Arr(n.drops.iter().map(|&d| Json::uint(d)).collect()),
                ),
            ])
        };
        let forensic = |e: &ForensicEntry| {
            let mut pairs = vec![
                ("t", Json::Num(e.t)),
                ("kind", Json::Str(e.kind.name().into())),
            ];
            match e.kind {
                ForensicKind::Action => {
                    pairs.push(("label", Json::Str(e.label.clone())));
                    let census = e.drops_at.iter().map(|&d| Json::uint(d)).collect();
                    pairs.push(("drops_at", Json::Arr(census)));
                }
                ForensicKind::FlowDown => {
                    pairs.push(("flow", Json::uint(e.flow as u64)));
                    let cause = match self.drop_causes.get(e.cause as usize) {
                        Some(name) => Json::Str(name.to_string()),
                        None => Json::uint(e.cause as u64),
                    };
                    pairs.push(("cause", cause));
                }
                ForensicKind::FlowUp => pairs.push(("flow", Json::uint(e.flow as u64))),
            }
            Json::obj(pairs)
        };
        let span = |s: &FlowSpan| {
            Json::obj(vec![
                ("packet", Json::uint(s.packet)),
                ("flow", Json::uint(s.flow as u64)),
                ("node", Json::uint(s.node as u64)),
                ("t0", Json::Num(s.t0)),
                ("t1", Json::Num(s.t1)),
                ("kind", Json::Str(s.kind.name().into())),
                ("aux", Json::uint(s.aux as u64)),
            ])
        };
        let names = self.drop_causes.iter().map(|n| Json::Str(n.to_string()));
        Json::obj(vec![
            ("n_nodes", Json::uint(self.nodes.len() as u64)),
            ("drop_causes", Json::Arr(names.collect())),
            ("nodes", Json::Arr(self.nodes.iter().map(node).collect())),
            (
                "forensics",
                Json::Arr(self.forensics.iter().map(forensic).collect()),
            ),
            (
                "spans",
                Json::obj(vec![
                    ("total", Json::uint(self.spans.len() as u64)),
                    ("truncated", Json::Bool(self.spans.len() > SPANS_IN_JSON)),
                    (
                        "items",
                        Json::Arr(self.spans.iter().take(SPANS_IN_JSON).map(span).collect()),
                    ),
                ]),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Snapshot;

    #[test]
    fn profile_merges_by_summation() {
        let mut p = EngineProfile {
            runs: 1,
            threads: 2,
            windows: 10,
            lp_events: vec![5, 3],
            lp_busy_windows: vec![4, 2],
            lookahead_min_s: 1e-6,
            lookahead_max_s: 2e-6,
            lookahead_sum_s: 3e-6,
            lookahead_lps: 2,
            ..EngineProfile::default()
        };
        let q = EngineProfile {
            runs: 1,
            threads: 4,
            windows: 7,
            lp_events: vec![1, 1, 8],
            lp_busy_windows: vec![1, 1, 7],
            lookahead_min_s: 5e-7,
            lookahead_max_s: 1e-6,
            lookahead_sum_s: 2e-6,
            lookahead_lps: 3,
            ..EngineProfile::default()
        };
        p.merge(&q);
        assert_eq!(p.runs, 2);
        assert_eq!(p.threads, 4);
        assert_eq!(p.windows, 17);
        assert_eq!(p.lp_events, vec![6, 4, 8]);
        assert_eq!(p.events_total(), 18);
        assert_eq!(p.lp_events_max(), 8);
        assert!((p.load_imbalance() - 8.0 / 6.0).abs() < 1e-12);
        assert_eq!(p.lookahead_min_s, 5e-7);
        assert_eq!(p.lookahead_max_s, 2e-6);
    }

    #[test]
    fn json_shape_puts_profile_last() {
        let mut nodes = vec![NodeCounters::default()];
        nodes[0].transits = 10;
        let mut forensics = vec![
            ForensicEntry {
                t: 1.0,
                kind: ForensicKind::FlowDown,
                flow: 0,
                cause: 2,
                label: String::new(),
                drops_at: [0; NET_DROP_CAUSES],
            },
            ForensicEntry {
                t: 0.5,
                kind: ForensicKind::Action,
                flow: u32::MAX,
                cause: u32::MAX,
                label: "sru-kill node3/lc0".into(),
                drops_at: [1, 0, 0, 0, 0, 0, 0, 0],
            },
        ];
        forensics.sort_unstable_by(ForensicEntry::cmp_canonical);
        let mut s = Snapshot {
            network: Some(NetScope {
                drop_causes: vec!["a", "b", "c", "d", "e", "f", "g", "h"],
                nodes,
                forensics,
                spans: Vec::new(),
            }),
            profile: Some(EngineProfile {
                runs: 1,
                threads: 2,
                windows: 4,
                lp_events: vec![3, 1],
                lp_busy_windows: vec![2, 1],
                lookahead_min_s: 1e-6,
                lookahead_max_s: 1e-6,
                lookahead_sum_s: 2e-6,
                lookahead_lps: 2,
                ..EngineProfile::default()
            }),
            ..Snapshot::default()
        };
        let json = s.to_json().to_string_compact();
        assert!(json.contains("\"router\":null,\"network\":{\"n_nodes\":1"));
        assert!(json.contains("\"kind\":\"action\""));
        assert!(json.contains("\"label\":\"sru-kill node3/lc0\""));
        assert!(json.contains("\"kind\":\"flow_down\""));
        assert!(json.contains("\"cause\":\"c\""));
        assert!(json.contains("\"anomaly\":null,\"profile\":{\"runs\":1"));
        assert!(json.contains("\"load_imbalance\":1.5"));
        s.profile = None;
        assert!(s
            .to_json()
            .to_string_compact()
            .ends_with("\"profile\":null}"));
    }
}
