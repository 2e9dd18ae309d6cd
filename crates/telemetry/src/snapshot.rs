//! The one telemetry document, `dra-telemetry/v2`: a mergeable
//! [`Snapshot`] with a router scope, a network scope, the frozen
//! flight-recorder window and the engine profile.
//!
//! ```text
//! { "format": "dra-telemetry/v2", "cells_merged": N,
//!   "router":  { sample_every, sampled_packets, open_tracks, counters,
//!                gauges, hists, recorder } | null,
//!   "network": { n_nodes, drop_causes, nodes, forensics, spans } | null,
//!   "anomaly": { reason, t, events_truncated, events } | null,
//!   "profile": { runs, threads, windows, … } | null }
//! ```
//!
//! Every member but `profile` is deterministic: a pure function of the
//! cells merged, byte-identical at any worker count and any
//! `--sim-threads`. `profile` holds wall-clock measurements and comes
//! last, so consumers drop one member to compare documents.
//!
//! [`Snapshot::merge`] is commutative and associative — counter adds,
//! exact histogram-bucket adds, gauge maxima, multiset unions of the
//! network lists, and one total order on anomalies — so the merged
//! document never depends on merge order or on which worker ran a cell.

use crate::hist::CompactHist;
use crate::json::Json;
use crate::netscope::{EngineProfile, NetScope};
use crate::recorder::Event;
use std::cmp::Ordering;

/// Version tag of the document.
pub const SNAPSHOT_FORMAT: &str = "dra-telemetry/v2";

/// Flight-recorder window frozen by the first anomaly trigger.
#[derive(Debug, Clone)]
pub struct Anomaly {
    /// What tripped the recorder (e.g. "first eib-oversubscribed drop").
    pub reason: String,
    /// Sim-time of the trigger.
    pub t: f64,
    /// The retained event window, oldest first.
    pub events: Vec<Event>,
}

impl Anomaly {
    /// The merge rule's total order: earliest trigger first, then
    /// reason, then the event window. Equal under it means identical.
    pub fn cmp_canonical(&self, o: &Anomaly) -> Ordering {
        let events = |a: &Anomaly| {
            let key = |e: &Event| (e.t.to_bits(), e.kind as u8, e.a, e.b, e.packet);
            a.events.iter().map(key).collect::<Vec<_>>()
        };
        self.t
            .total_cmp(&o.t)
            .then_with(|| self.reason.cmp(&o.reason))
            .then_with(|| self.events.len().cmp(&o.events.len()))
            .then_with(|| events(self).cmp(&events(o)))
    }

    fn to_json(&self) -> Json {
        let skip = self.events.len().saturating_sub(ANOMALY_EVENTS_IN_JSON);
        let event = |e: &Event| {
            Json::obj(vec![
                ("t", Json::Num(e.t)),
                ("kind", Json::Str(e.kind.name().into())),
                ("a", Json::uint(e.a as u64)),
                ("b", Json::uint(e.b as u64)),
                ("packet", Json::uint(e.packet)),
            ])
        };
        Json::obj(vec![
            ("reason", Json::Str(self.reason.clone())),
            ("t", Json::Num(self.t)),
            ("events_truncated", Json::Bool(skip > 0)),
            (
                "events",
                Json::Arr(self.events[skip..].iter().map(event).collect()),
            ),
        ])
    }
}

/// Cap on anomaly events serialized into the JSON section (the full
/// window stays available in the struct).
const ANOMALY_EVENTS_IN_JSON: usize = 64;

/// The router scope: one hub's registry, lifecycle sampler and
/// recorder fill level.
#[derive(Debug, Clone)]
pub struct RouterScope {
    /// Sampling modulus in force (0 = sampling off).
    pub sample_every: u64,
    /// Packets that entered the lifecycle sample.
    pub sampled_packets: u64,
    /// Sampled packets still in flight when the snapshot was taken.
    pub open_tracks: u64,
    /// Registry counters, registration order.
    pub counters: Vec<(&'static str, u64)>,
    /// Registry gauges, registration order (merged by max).
    pub gauges: Vec<(&'static str, f64)>,
    /// Registry histograms, registration order.
    pub hists: Vec<(&'static str, CompactHist)>,
    /// Total events appended to the flight recorder.
    pub ring_appended: u64,
    /// Flight-recorder capacity.
    pub ring_capacity: u64,
}

impl RouterScope {
    /// # Panics
    /// Panics if the registries disagree (different metric names or
    /// histogram layouts) — scopes must come from the same build.
    fn merge(&mut self, other: &RouterScope) {
        same_names(&self.counters, &other.counters);
        same_names(&self.gauges, &other.gauges);
        same_names(&self.hists, &other.hists);
        self.sample_every = self.sample_every.max(other.sample_every);
        self.sampled_packets += other.sampled_packets;
        self.open_tracks += other.open_tracks;
        for ((_, v), (_, ov)) in self.counters.iter_mut().zip(&other.counters) {
            *v += ov;
        }
        for ((_, v), (_, ov)) in self.gauges.iter_mut().zip(&other.gauges) {
            *v = v.max(*ov);
        }
        for ((_, h), (_, oh)) in self.hists.iter_mut().zip(&other.hists) {
            h.merge(oh);
        }
        self.ring_appended += other.ring_appended;
        self.ring_capacity = self.ring_capacity.max(other.ring_capacity);
    }

    fn to_json(&self) -> Json {
        let hist = |h: &CompactHist| {
            let mut pairs = vec![
                ("count", Json::uint(h.count())),
                ("underflow", Json::uint(h.underflow())),
                ("overflow", Json::uint(h.overflow())),
            ];
            if h.count() > h.overflow() {
                for (key, q) in [("p50", 0.5), ("p90", 0.9), ("p99", 0.99)] {
                    let x = h.quantile(q);
                    if x.is_finite() {
                        pairs.push((key, Json::Num(x)));
                    }
                }
            }
            Json::obj(pairs)
        };
        Json::obj(vec![
            ("sample_every", Json::uint(self.sample_every)),
            ("sampled_packets", Json::uint(self.sampled_packets)),
            ("open_tracks", Json::uint(self.open_tracks)),
            (
                "counters",
                Json::obj(
                    self.counters
                        .iter()
                        .map(|&(n, v)| (n, Json::uint(v)))
                        .collect(),
                ),
            ),
            (
                "gauges",
                Json::obj(
                    self.gauges
                        .iter()
                        .map(|&(n, v)| (n, Json::Num(v)))
                        .collect(),
                ),
            ),
            (
                "hists",
                Json::obj(self.hists.iter().map(|(n, h)| (*n, hist(h))).collect()),
            ),
            (
                "recorder",
                Json::obj(vec![
                    ("appended", Json::uint(self.ring_appended)),
                    ("capacity", Json::uint(self.ring_capacity)),
                ]),
            ),
        ])
    }
}

fn same_names<T>(a: &[(&str, T)], b: &[(&str, T)]) {
    assert!(
        a.iter().map(|p| p.0).eq(b.iter().map(|p| p.0)),
        "Snapshot::merge: router registries differ"
    );
}

/// The `dra-telemetry/v2` document (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Sweep cells folded into this document (a hub snapshot is one
    /// cell; a network cell's per-replication parts count zero).
    pub cells_merged: u64,
    /// Router scope: `None` when no router-scope hook counted anything.
    pub router: Option<RouterScope>,
    /// Network scope: `None` unless a network cell contributed.
    pub network: Option<NetScope>,
    /// The frozen flight-recorder window that sorts first under
    /// [`Anomaly::cmp_canonical`].
    pub anomaly: Option<Anomaly>,
    /// Network engine profile — the one **non-deterministic** member.
    pub profile: Option<EngineProfile>,
}

fn merge_opt<T: Clone>(mine: &mut Option<T>, theirs: &Option<T>, merge: impl FnOnce(&mut T, &T)) {
    match (mine.as_mut(), theirs) {
        (Some(m), Some(t)) => merge(m, t),
        (None, Some(t)) => *mine = Some(t.clone()),
        _ => {}
    }
}

impl Snapshot {
    /// Merge another document into this one (commutative and
    /// associative; see the module docs).
    pub fn merge(&mut self, other: &Snapshot) {
        self.cells_merged += other.cells_merged;
        merge_opt(&mut self.router, &other.router, RouterScope::merge);
        merge_opt(&mut self.network, &other.network, NetScope::merge);
        merge_opt(&mut self.anomaly, &other.anomaly, |mine, theirs| {
            if theirs.cmp_canonical(mine).is_lt() {
                *mine = theirs.clone();
            }
        });
        merge_opt(&mut self.profile, &other.profile, EngineProfile::merge);
    }

    /// The document as JSON, `profile` last.
    pub fn to_json(&self) -> Json {
        let opt = |v: Option<Json>| v.unwrap_or(Json::Null);
        Json::obj(vec![
            ("format", Json::Str(SNAPSHOT_FORMAT.into())),
            ("cells_merged", Json::uint(self.cells_merged)),
            (
                "router",
                opt(self.router.as_ref().map(RouterScope::to_json)),
            ),
            ("network", opt(self.network.as_ref().map(NetScope::to_json))),
            ("anomaly", opt(self.anomaly.as_ref().map(Anomaly::to_json))),
            (
                "profile",
                opt(self.profile.as_ref().map(EngineProfile::to_json)),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::EventKind;

    #[test]
    fn json_has_versioned_format_and_scopes() {
        let mut h = CompactHist::new(1e-9, 1.0, 90);
        h.record(1e-5);
        let snap = Snapshot {
            cells_merged: 1,
            router: Some(RouterScope {
                sample_every: 64,
                sampled_packets: 0,
                open_tracks: 0,
                counters: vec![("router.arrivals", 0)],
                gauges: vec![("des.sim_time", 0.5)],
                hists: vec![("latency.total", h)],
                ring_appended: 0,
                ring_capacity: 1024,
            }),
            anomaly: Some(Anomaly {
                reason: "early".into(),
                t: 1.0,
                events: vec![Event {
                    t: 0.9,
                    kind: EventKind::Drop,
                    a: 6,
                    b: 0,
                    packet: 3,
                }],
            }),
            ..Snapshot::default()
        };
        let json = snap.to_json().to_string_compact();
        assert!(json.starts_with("{\"format\":\"dra-telemetry/v2\",\"cells_merged\":1"));
        assert!(json.contains("\"counters\":{\"router.arrivals\":0}"));
        assert!(json.contains("\"network\":null"));
        assert!(json.contains("\"anomaly\":{\"reason\":\"early\""));
        assert!(json.contains("\"kind\":\"drop\""));
        assert!(json.ends_with(",\"profile\":null}"));
    }

    #[test]
    fn anomaly_packet_ids_above_2_pow_53_print_exactly() {
        // A router packet id is `lc << 48 | seq`: 2^53 is reached at
        // linecard 32, beyond what an f64 holds.
        let packet = (33u64 << 48) | 1;
        let snap = Snapshot {
            anomaly: Some(Anomaly {
                reason: "wide router".into(),
                t: 0.0,
                events: vec![Event {
                    t: 0.0,
                    kind: EventKind::Drop,
                    a: 0,
                    b: 33,
                    packet,
                }],
            }),
            ..Snapshot::default()
        };
        let text = snap.to_json().to_string_compact();
        assert!(text.contains(&format!("\"packet\":{packet}")), "{text}");
        let doc = crate::json::parse(&text).unwrap();
        let events = doc.get("anomaly").and_then(|a| a.get("events")).unwrap();
        assert_eq!(
            events.as_arr().unwrap()[0]
                .get("packet")
                .and_then(Json::as_u64),
            Some(packet)
        );
    }
}
