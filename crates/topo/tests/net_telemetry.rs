//! Network-scope telemetry contracts.
//!
//! * The snapshot's `deterministic` section and the whole flow trace
//!   are byte-identical at `--sim-threads` 1 vs 2 vs 4 (one router
//!   group vs several) — the same invariance the artifact itself
//!   carries, extended to the observability outputs.
//! * `NetScopeSnapshot::merge` is commutative and associative, so the
//!   fold over per-group / per-cell partials is partition- and
//!   order-invariant (proptest).

use dra_campaign::json::{parse, Json};
use dra_core::health::ArchKind;
use dra_telemetry::{
    EngineProfile, FlowSpan, ForensicEntry, ForensicKind, NetScopeSnapshot, NodeCounters, SpanKind,
    NET_DROP_CAUSES,
};
use dra_topo::engine::{self, TopoRunOptions};
use dra_topo::spec::{FlowSpec, TopoCellSpec, TopoFaultSpec, TopoSpec};
use dra_topo::stats::NetDropCause;
use dra_topo::topology::TopologyKind;
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

/// The snapshot text split at its non-deterministic `profile` section.
fn deterministic_prefix(snapshot_json: &str) -> &str {
    let cut = snapshot_json
        .rfind(",\"profile\":")
        .expect("snapshot has a profile section");
    &snapshot_json[..cut]
}

#[test]
fn deterministic_section_is_sim_thread_invariant() {
    let spec = tiny_spec();
    let run_with = |threads: usize| {
        let snap_path = tmp(&format!("snap_t{threads}"));
        let trace_path = tmp(&format!("trace_t{threads}"));
        let outcome = engine::run(
            &spec,
            &TopoRunOptions {
                workers: Some(1),
                sim_threads: Some(threads),
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
        (outcome.artifact_text, snap, trace)
    };
    let (art1, snap1, trace1) = run_with(1);
    let (art2, snap2, trace2) = run_with(2);
    let (art4, snap4, trace4) = run_with(4);

    // The artifact stays byte-identical with collection on.
    assert_eq!(art1, art2);
    assert_eq!(art1, art4);
    // The deterministic snapshot section is engine-invariant...
    assert_eq!(deterministic_prefix(&snap1), deterministic_prefix(&snap2));
    assert_eq!(deterministic_prefix(&snap1), deterministic_prefix(&snap4));
    // ...and the flow trace is derived from it alone, so it is too.
    assert_eq!(trace1, trace2);
    assert_eq!(trace1, trace4);

    // One engine: every run carries its profile, one entry per group.
    let doc1 = parse(&snap1).unwrap();
    let doc2 = parse(&snap2).unwrap();
    let groups = |doc: &Json| {
        let prof = doc.get("profile").expect("engine profile present");
        assert!(prof.get("barrier_wait_ns").and_then(Json::as_u64).is_some());
        prof.get("lp_events")
            .and_then(Json::as_arr)
            .map(<[Json]>::len)
    };
    assert_eq!(groups(&doc1), Some(1), "sim-threads 1 is one group");
    assert_eq!(
        groups(&doc2),
        Some(dra_des::pdes::effective_threads(2, 9)),
        "sim-threads 2 is one group per core, up to two"
    );

    // Snapshot shape: format tag, per-node counters, forensics with
    // the scripted SRU kills, sampled spans.
    assert_eq!(
        doc1.get("format").and_then(Json::as_str),
        Some("dra-topo-telemetry/v1")
    );
    let det = doc1.get("deterministic").unwrap();
    assert_eq!(det.get("n_nodes").and_then(Json::as_u64), Some(9));
    assert_eq!(
        det.get("drop_causes")
            .and_then(Json::as_arr)
            .map(<[Json]>::len),
        Some(8)
    );
    let forensics = det.get("forensics").and_then(Json::as_arr).unwrap();
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
    proptest::option::of(
        (
            1u64..4,
            1u64..4,
            0u64..2_000,
            0u64..500,
            proptest::collection::vec(0u64..300, 0..9),
        )
            .prop_map(|(runs, threads, windows, cross, lp_events)| {
                let lp_busy_windows = lp_events.iter().map(|&e| e.min(7)).collect();
                EngineProfile {
                    runs,
                    threads,
                    windows,
                    cross_messages: cross,
                    wall_ns: windows * 997,
                    barrier_wait_ns: windows * 41,
                    nonempty_windows: windows / 2,
                    window_max_events_sum: windows,
                    lp_events,
                    lp_busy_windows,
                    lookahead_min_s: 1e-5,
                    lookahead_max_s: 2e-5,
                    lookahead_sum_s: 1.5e-5,
                    lookahead_lps: 1,
                }
            }),
    )
}

fn snapshot() -> impl Strategy<Value = NetScopeSnapshot> {
    (
        1u64..3,
        proptest::collection::vec(node_counters(), 0..9),
        proptest::collection::vec(forensic(), 0..12),
        proptest::collection::vec(span(), 0..24),
        profile(),
    )
        .prop_map(|(cells_merged, nodes, forensics, spans, profile)| {
            let mut s = NetScopeSnapshot {
                cells_merged,
                drop_causes: causes(),
                nodes,
                forensics,
                spans,
                frozen: None,
                profile,
            };
            // Producers hand over canonically sorted records; generated
            // snapshots must honor the same precondition.
            s.forensics.sort_unstable_by(ForensicEntry::cmp_canonical);
            s.spans.sort_unstable_by(FlowSpan::cmp_canonical);
            s
        })
}

fn merged(a: &NetScopeSnapshot, b: &NetScopeSnapshot) -> NetScopeSnapshot {
    let mut m = a.clone();
    m.merge(b);
    m
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        ..ProptestConfig::default()
    })]

    /// Merge is a commutative, associative fold: any partition of the
    /// per-LP (or per-cell) partials, merged in any order, serializes
    /// to the same bytes. `NET_DROP_CAUSES` pins the census width the
    /// generated counters rely on.
    #[test]
    fn net_scope_merge_is_commutative_and_associative(
        a in snapshot(),
        b in snapshot(),
        c in snapshot(),
    ) {
        prop_assert_eq!(NET_DROP_CAUSES, 8);
        let ab = merged(&a, &b);
        let ba = merged(&b, &a);
        prop_assert_eq!(ab.to_json_string(), ba.to_json_string(), "commutativity");
        let ab_c = merged(&merged(&a, &b), &c);
        let a_bc = merged(&a, &merged(&b, &c));
        prop_assert_eq!(ab_c.to_json_string(), a_bc.to_json_string(), "associativity");
    }
}
