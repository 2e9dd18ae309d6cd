//! Network-scope telemetry: per-router counters, multi-hop flow
//! spans, a fault-forensics ledger, and the network engine profile.
//!
//! The router scope of a [`Snapshot`](crate::Snapshot) stops at the
//! chassis boundary; [`NetScope`] is its network-of-routers sibling,
//! produced by `dra-topo` runs, and [`EngineProfile`] fills the
//! document's non-deterministic `profile` member.
//!
//! Everything in a [`NetScope`] is derived from sim-time ordered data
//! and is byte-identical at any worker count. Its lists merge by
//! concatenate-then-canonical-sort (a multiset union) and its counters
//! by addition. The engine profile (wall-clock) is not deterministic.

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

/// Engine profile: the network engine's wall-clock and event count.
/// **Non-deterministic** — lives only in the document's `profile`
/// member.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineProfile {
    /// Network runs folded into this profile.
    pub runs: u64,
    /// Wall-clock spent inside the engine's event loop, nanoseconds
    /// (sum).
    pub wall_ns: u64,
    /// Events processed (sum).
    pub events: u64,
}

impl EngineProfile {
    /// Fold another run's profile into this one.
    pub fn merge(&mut self, o: &EngineProfile) {
        self.runs += o.runs;
        self.wall_ns += o.wall_ns;
        self.events += o.events;
    }

    pub(crate) fn to_json(&self) -> Json {
        Json::obj(vec![
            ("runs", Json::uint(self.runs)),
            ("wall_ns", Json::uint(self.wall_ns)),
            ("events", Json::uint(self.events)),
        ])
    }
}

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
            wall_ns: 10,
            events: 5,
        };
        p.merge(&EngineProfile {
            runs: 2,
            wall_ns: 7,
            events: 9,
        });
        assert_eq!(
            p,
            EngineProfile {
                runs: 3,
                wall_ns: 17,
                events: 14,
            }
        );
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
                wall_ns: 900,
                events: 4,
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
        assert!(json.ends_with("\"profile\":{\"runs\":1,\"wall_ns\":900,\"events\":4}}"));
        s.profile = None;
        assert!(s
            .to_json()
            .to_string_compact()
            .ends_with("\"profile\":null}"));
    }
}
