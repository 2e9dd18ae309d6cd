//! `dra-telemetry/v2` document contracts.
//!
//! * Every member but `profile`, and the whole flow trace, is
//!   byte-identical at `--workers` 1 vs 4 — the same invariance the
//!   artifact itself carries, extended to the observability outputs.
//! * `Snapshot::merge` is commutative and associative over the whole
//!   document (router scope, network scope, anomaly ties, profile), so
//!   the fold over per-replication / per-cell parts is partition- and
//!   order-invariant (proptest).

use dra_campaign::json::{parse, Json};
use dra_campaign::sweep::RunOptions;
use dra_core::health::ArchKind;
use dra_telemetry::{
    Anomaly, EngineProfile, Event, EventKind, FlowSpan, ForensicEntry, ForensicKind, LogHistogram,
    NetScope, NodeCounters, RouterScope, Snapshot, SpanKind, NET_DROP_CAUSES,
};
use dra_topo::engine::{self, TopoRunOptions};
use dra_topo::spec::{FlowSpec, TopoCellSpec, TopoFaultSpec, TopoSpec};
use dra_topo::stats::NetDropCause;
use dra_topo::topology::TopologyKind;
use dra_topo::NetAction;
use proptest::prelude::*;
use std::path::PathBuf;

fn tiny_spec() -> TopoSpec {
    let cell = |id: &str, arch| TopoCellSpec {
        id: id.into(),
        arch,
        topology: TopologyKind::Mesh2D { rows: 3, cols: 3 },
        link: Default::default(),
        flows: FlowSpec {
            n_flows: 4,
            rate_pps: 20_000.0,
            packet_bytes: 700,
        },
        faults: TopoFaultSpec::FailRouters { k: 2, at_s: 2e-3 },
        horizon_s: 8e-3,
        drain_s: 2e-3,
        replications: 2,
        seed_group: 0,
    };
    TopoSpec {
        name: "tele-tiny".into(),
        description: "telemetry invariance test".into(),
        master_seed: 0x7E1E,
        cells: vec![
            cell("bdr/mesh/r2", ArchKind::Bdr),
            cell("dra/mesh/r2", ArchKind::Dra),
        ],
    }
}

fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dra_net_tele_{}_{tag}.json", std::process::id()))
}

/// A `dra-telemetry/v2` document without its non-deterministic
/// `profile` member.
fn deterministic(mut doc: Json) -> Json {
    if let Json::Obj(members) = &mut doc {
        members.retain(|(k, _)| k != "profile");
    }
    doc
}

#[test]
fn deterministic_section_is_worker_invariant() {
    let spec = tiny_spec();
    let run_with = |workers: usize| {
        let snap_path = tmp(&format!("snap_w{workers}"));
        let trace_path = tmp(&format!("trace_w{workers}"));
        let outcome = engine::run(
            &spec,
            &TopoRunOptions {
                workers: Some(workers),
                quiet: true,
                telemetry_out: Some(snap_path.clone()),
                trace_out: Some(trace_path.clone()),
                ..Default::default()
            },
        )
        .unwrap();
        let snap = std::fs::read_to_string(&snap_path).unwrap();
        let trace = std::fs::read_to_string(&trace_path).unwrap();
        let _ = std::fs::remove_file(&snap_path);
        let _ = std::fs::remove_file(&trace_path);
        (outcome.artifact_text, parse(&snap).unwrap(), trace)
    };
    let (art1, doc1, trace1) = run_with(1);
    let (art4, doc4, trace4) = run_with(4);

    // The artifact stays byte-identical with collection on.
    assert_eq!(art1, art4);
    // Everything but the profile is worker-invariant...
    assert_eq!(deterministic(doc1.clone()), deterministic(doc4.clone()));
    // ...and the flow trace is derived from it alone, so it is too.
    assert_eq!(trace1, trace4);

    // Every network run adds to the profile: 2 cells x 2 replications.
    for doc in [&doc1, &doc4] {
        let Some(Json::Obj(prof)) = doc.get("profile") else {
            panic!("engine profile present")
        };
        let keys: Vec<&str> = prof.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["runs", "wall_ns", "events"]);
        let count = |k| {
            doc.get("profile")
                .and_then(|p| p.get(k))
                .and_then(Json::as_u64)
        };
        assert_eq!(count("runs"), Some(4));
        assert!(count("events") > Some(0));
    }

    // Document shape: format tag, one count per cell, a router scope
    // that counts only the network's DES events, per-node counters,
    // forensics with the scripted SRU kills.
    assert_eq!(
        doc1.get("format").and_then(Json::as_str),
        Some("dra-telemetry/v2")
    );
    assert_eq!(doc1.get("cells_merged").and_then(Json::as_u64), Some(2));
    let Some(Json::Obj(counters)) = doc1.get("router").and_then(|r| r.get("counters")) else {
        panic!("router scope with counters")
    };
    for (name, value) in counters {
        if !name.starts_with("des.") {
            assert_eq!(
                value.as_u64(),
                Some(0),
                "{name}: a network cell drives no router"
            );
        }
    }
    let des_events = doc1
        .get("router")
        .and_then(|r| r.get("counters"))
        .and_then(|c| c.get("des.events"))
        .and_then(Json::as_u64);
    let profile_events = doc1
        .get("profile")
        .and_then(|p| p.get("events"))
        .and_then(Json::as_u64);
    assert_eq!(des_events, profile_events, "one kernel counts every event");
    let net = doc1.get("network").unwrap();
    assert_eq!(net.get("n_nodes").and_then(Json::as_u64), Some(9));
    assert_eq!(
        net.get("drop_causes")
            .and_then(Json::as_arr)
            .map(<[Json]>::len),
        Some(8)
    );
    let forensics = net.get("forensics").and_then(Json::as_arr).unwrap();
    assert!(
        forensics.iter().any(|e| e
            .get("label")
            .and_then(Json::as_str)
            .is_some_and(|l| l.contains("fail-sru"))),
        "forensics ledger records the scripted SRU kills"
    );
    // Trace doc parses and holds Perfetto-style events.
    let tdoc = parse(&trace1).unwrap();
    assert!(
        !tdoc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .unwrap()
            .is_empty(),
        "sampled packets produce trace events"
    );
}

#[test]
fn sweep_leaves_the_hub_disarmed() {
    // At one worker the pool runs cells on this thread: the envelope
    // must disarm the hub after each one, or every later simulation on
    // the thread keeps paying for (and recording into) it.
    let snap_path = tmp("disarm");
    engine::run(
        &tiny_spec(),
        &TopoRunOptions {
            workers: Some(1),
            quiet: true,
            telemetry_out: Some(snap_path.clone()),
            ..Default::default()
        },
    )
    .unwrap();
    let _ = std::fs::remove_file(&snap_path);
    assert!(!dra_telemetry::enabled(), "hub left armed after the sweep");
}

#[test]
fn embedded_network_scope_validates_and_leaves_records_alone() {
    let spec = tiny_spec();
    let opts = |telemetry| RunOptions {
        workers: 1,
        telemetry,
        ..RunOptions::default()
    };
    let plain = engine::run_with(&spec, &opts(false)).unwrap();
    let embedded = engine::run_with(&spec, &opts(true)).unwrap();
    let (cells, flagged) = engine::validate_artifact(&embedded.artifact_text).unwrap();
    assert_eq!((cells, flagged), (2, 0));
    let mut doc = parse(&embedded.artifact_text).unwrap();
    let Json::Obj(members) = &mut doc else {
        panic!("artifact is an object")
    };
    let (key, section) = members.pop().unwrap();
    assert_eq!(key, "telemetry");
    assert!(
        section.get("profile").is_none(),
        "no wall-clock in an artifact"
    );
    assert_eq!(section.get("cells_merged").and_then(Json::as_u64), Some(2));
    assert!(section
        .get("network")
        .and_then(|n| n.get("nodes"))
        .is_some());
    assert_eq!(doc.to_string_pretty(), plain.artifact_text);
}

#[test]
fn a_renewal_cell_reports_every_fault_it_applied() {
    // Compressed lifetimes and a long repair land several failures on
    // each router's cards within the horizon.
    let cell = TopoCellSpec {
        id: "dra/mesh/renewal".into(),
        faults: TopoFaultSpec::Renewal {
            delay_scale: 1e-7,
            repair_h: 20_000.0,
        },
        replications: 1,
        ..tiny_spec().cells[1].clone()
    };
    let mut net = engine::build_network(&cell, 0x7E1E, 0);
    net.enable_net_telemetry(1);
    let mut net = net.run(7, cell.horizon_s);
    let fired: Vec<(f64, NetAction)> = net
        .scenario()
        .iter()
        .filter(|(at, _)| *at <= cell.horizon_s)
        .cloned()
        .collect();
    // What the routers applied, counted by their own health state.
    let n_nodes = net.topo.n_nodes() as u32;
    let applied: Vec<u64> = (0..n_nodes)
        .map(|n| net.node(n).events_processed())
        .collect();
    assert!(
        applied.iter().sum::<u64>() >= n_nodes as u64,
        "too few faults sampled: {applied:?}"
    );
    let report = net
        .export_net_telemetry(cell.horizon_s, 0, 0)
        .expect("collector installed");
    let scope = report.snapshot.network.expect("network scope");
    // Exactly one forensics `Action` entry per fired action.
    let mut logged: Vec<f64> = scope
        .forensics
        .iter()
        .filter(|e| e.kind == ForensicKind::Action)
        .map(|e| e.t)
        .collect();
    let mut want: Vec<f64> = fired.iter().map(|(at, _)| *at).collect();
    logged.sort_by(f64::total_cmp);
    want.sort_by(f64::total_cmp);
    assert_eq!(logged, want, "one forensics entry per fired action");
    // The per-node `actions` counters sum to the fired actions, a cable
    // counting at both endpoints, and each router's counter is what
    // its health state applied.
    let weight = |a: &NetAction| match a {
        NetAction::FailLink { .. } | NetAction::RepairLink { .. } => 2,
        _ => 1,
    };
    let counted: Vec<u64> = scope.nodes.iter().map(|n| n.actions).collect();
    assert_eq!(
        counted.iter().sum::<u64>(),
        fired.iter().map(|(_, a)| weight(a)).sum::<u64>()
    );
    assert_eq!(counted, applied, "per-node actions against router health");
}

// ---- merge algebra -------------------------------------------------

fn causes() -> Vec<&'static str> {
    NetDropCause::ALL.iter().map(|c| c.name()).collect()
}

fn time() -> impl Strategy<Value = f64> {
    (0u64..2_000).prop_map(|t| t as f64 * 1e-6)
}

fn node_counters() -> impl Strategy<Value = NodeCounters> {
    (
        0u64..500,
        0u64..100,
        0u64..500,
        0u64..500,
        0u64..8,
        proptest::array::uniform8(0u64..50),
    )
        .prop_map(
            |(transits, covered, forwards, delivered, actions, drops)| NodeCounters {
                transits,
                covered,
                forwards,
                delivered,
                actions,
                drops,
            },
        )
}

fn span() -> impl Strategy<Value = FlowSpan> {
    (
        0u64..64,
        0u32..4,
        0u32..9,
        time(),
        0u64..30,
        0u8..4,
        0u32..16,
    )
        .prop_map(|(packet, flow, node, t0, dur, kind, aux)| FlowSpan {
            packet,
            flow,
            node,
            t0,
            t1: t0 + dur as f64 * 1e-6,
            kind: match kind {
                0 => SpanKind::Transit,
                1 => SpanKind::Link,
                2 => SpanKind::Deliver,
                _ => SpanKind::Drop,
            },
            aux,
        })
}

fn forensic() -> impl Strategy<Value = ForensicEntry> {
    (
        time(),
        0u8..3,
        0u32..4,
        0u32..8,
        proptest::array::uniform8(0u64..50),
    )
        .prop_map(|(t, kind, flow, cause, drops_at)| {
            let kind = match kind {
                0 => ForensicKind::Action,
                1 => ForensicKind::FlowDown,
                _ => ForensicKind::FlowUp,
            };
            ForensicEntry {
                t,
                flow: if kind == ForensicKind::Action {
                    u32::MAX
                } else {
                    flow
                },
                cause: if kind == ForensicKind::FlowDown {
                    cause
                } else {
                    u32::MAX
                },
                label: if kind == ForensicKind::Action {
                    format!("fail-link {flow}-{cause}")
                } else {
                    String::new()
                },
                drops_at: if kind == ForensicKind::Action {
                    drops_at
                } else {
                    [0; 8]
                },
                kind,
            }
        })
}

fn profile() -> impl Strategy<Value = Option<EngineProfile>> {
    proptest::option::of((1u64..4, 0u64..1_000_000, 0u64..500_000).prop_map(
        |(runs, wall_ns, events)| EngineProfile {
            runs,
            wall_ns,
            events,
        },
    ))
}

fn network() -> impl Strategy<Value = Option<NetScope>> {
    proptest::option::of(
        (
            proptest::collection::vec(node_counters(), 0..9),
            proptest::collection::vec(forensic(), 0..12),
            proptest::collection::vec(span(), 0..24),
        )
            .prop_map(|(nodes, mut forensics, mut spans)| {
                // Producers hand over canonically sorted records;
                // generated scopes must honor the same precondition.
                forensics.sort_unstable_by(ForensicEntry::cmp_canonical);
                spans.sort_unstable_by(FlowSpan::cmp_canonical);
                NetScope {
                    drop_causes: causes(),
                    nodes,
                    forensics,
                    spans,
                }
            }),
    )
}

fn router() -> impl Strategy<Value = Option<RouterScope>> {
    proptest::option::of(
        (
            proptest::array::uniform8(0u64..1_000),
            0u64..3,
            0u64..2_000,
            proptest::collection::vec(0u64..4_000, 0..6),
        )
            .prop_map(|(c, sim_ms, ring, latencies_ns)| {
                let mut hist = LogHistogram::new(1e-9, 1.0, 81);
                for ns in latencies_ns {
                    hist.record(ns as f64 * 1e-9);
                }
                RouterScope {
                    sample_every: 64,
                    sampled_packets: c[0],
                    open_tracks: c[1] % 4,
                    counters: vec![("des.events", c[2]), ("router.arrivals", c[3])],
                    gauges: vec![
                        ("des.sim_time", sim_ms as f64 * 1e-3),
                        ("des.queue_len_peak", c[4] as f64),
                    ],
                    hists: vec![("latency.total", hist)],
                    ring_appended: ring,
                    ring_capacity: 1024,
                }
            }),
    )
}

/// Few distinct times and reasons, so generated anomalies often tie on
/// both and the merge must fall through to the event window.
fn anomaly() -> impl Strategy<Value = Option<Anomaly>> {
    proptest::option::of(
        (
            0u64..3,
            0u8..2,
            proptest::collection::vec((0u64..3, 0u32..2, 0u64..3), 0..3),
        )
            .prop_map(|(t, reason, events)| Anomaly {
                reason: ["first eib-oversubscribed drop", "net: conservation"][reason as usize]
                    .to_string(),
                t: t as f64 * 1e-6,
                events: events
                    .into_iter()
                    .map(|(et, a, packet)| Event {
                        t: et as f64 * 1e-7,
                        kind: EventKind::Drop,
                        a,
                        b: 0,
                        packet: packet << 52,
                    })
                    .collect(),
            }),
    )
}

fn snapshot() -> impl Strategy<Value = Snapshot> {
    (0u64..3, router(), network(), anomaly(), profile()).prop_map(
        |(cells_merged, router, network, anomaly, profile)| Snapshot {
            cells_merged,
            router,
            network,
            anomaly,
            profile,
        },
    )
}

fn merged(a: &Snapshot, b: &Snapshot) -> Snapshot {
    let mut m = a.clone();
    m.merge(b);
    m
}

fn text(s: &Snapshot) -> String {
    s.to_json().to_string_compact()
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        ..ProptestConfig::default()
    })]

    /// Merge is a commutative, associative fold over the whole
    /// document: any partition of the per-replication (or per-cell)
    /// parts, merged in any order, serializes to the same bytes. It
    /// adds counts, keeps gauge maxima, unions the network lists in
    /// canonical order and keeps the anomaly that sorts first.
    /// `NET_DROP_CAUSES` pins the census width the generated counters
    /// rely on.
    #[test]
    fn document_merge_is_commutative_and_associative(
        a in snapshot(),
        b in snapshot(),
        c in snapshot(),
    ) {
        prop_assert_eq!(NET_DROP_CAUSES, 8);
        let ab = merged(&a, &b);
        prop_assert_eq!(text(&ab), text(&merged(&b, &a)), "commutativity");
        let ab_c = merged(&ab, &c);
        let a_bc = merged(&a, &merged(&b, &c));
        prop_assert_eq!(text(&ab_c), text(&a_bc), "associativity");

        prop_assert_eq!(ab.cells_merged, a.cells_merged + b.cells_merged);
        if let (Some(ra), Some(rb), Some(m)) = (&a.router, &b.router, &ab.router) {
            prop_assert_eq!(m.counters[1].1, ra.counters[1].1 + rb.counters[1].1);
            prop_assert_eq!(m.gauges[0].1, ra.gauges[0].1.max(rb.gauges[0].1));
            prop_assert_eq!(m.hists[0].1.count(), ra.hists[0].1.count() + rb.hists[0].1.count());
        }
        if let Some(n) = &ab.network {
            let longest = [&a, &b].iter().filter_map(|s| s.network.as_ref()).map(|n| n.nodes.len()).max();
            prop_assert_eq!(Some(n.nodes.len()), longest);
            prop_assert!(n.forensics.windows(2).all(|w| w[0].cmp_canonical(&w[1]).is_le()));
            prop_assert!(n.spans.windows(2).all(|w| w[0].cmp_canonical(&w[1]).is_le()));
        }
        let first = [&a.anomaly, &b.anomaly]
            .into_iter()
            .flatten()
            .min_by(|x, y| x.cmp_canonical(y));
        prop_assert_eq!(
            ab.anomaly.as_ref().map(|x| x.t),
            first.map(|x| x.t),
            "the earliest anomaly wins"
        );
    }
}
