//! The traced run: per-layer attribution of a workload's sweep 0.
//!
//! Three things happen, all on one thread except the parallel-engine
//! probe:
//! 1. every replication of sweep 0 is replayed through the public
//!    layer calls, each wrapped in a span;
//! 2. one engine `run` at workers 1 times the same spec as a whole
//!    (`campaign.sweep`), and its artifact is validated;
//! 3. the replay is cross-checked against that artifact cell by cell.
//!
//! Some calls are made only to be measured and repeat work another
//! call also does: `Topology::build`, `RouteTables::derive` and
//! `compile_fibs` run again inside `build_network`, and the parallel
//! engine needs a second network build. Those probes stay out of
//! `trace.total_s`; the layer rows plus `trace.residual_s` sum to it.

use crate::alloc::allocations;
use crate::host::status_kib;
use crate::metrics::{ratio, Checks, Values};
use crate::trace::Tracer;
use crate::workload::{build_router, router_seed, sample_scenario, RouterSim, Spec, Workload};
use dra_campaign::json::{parse, Json};
use dra_campaign::seed::{derive_seed, Stream};
use dra_campaign::CampaignSpec;
use dra_core::scenario::{Action, Scenario, WindowedMetrics};
use dra_core::sim::DraRouter;
use dra_des::{Model, Simulation};
use dra_router::bdr::BdrRouter;
use dra_router::metrics::{DropCause, RouterMetrics};
use dra_topo::routes::{compile_fibs, RouteTables};
use dra_topo::{build_network, NetDropCause, NetStats, TopoSpec, Topology};
use std::path::Path;

/// Work counted during the replay (host-independent except the RSS and
/// allocation counts).
#[derive(Debug, Default)]
struct Counts {
    topo_hops: u64,
    topo_injected: u64,
    topo_delivered: u64,
    topo_drops: u64,
    build_rss_kib: u64,
    serial_allocs: u64,
    pdes_allocs: u64,
    events: u64,
    router_allocs: u64,
    fault_actions: u64,
    eib_packets: u64,
    eib_collisions: u64,
    covered_packets: u64,
    offered_pkts: u64,
    delivered_pkts: u64,
    artifact_bytes: u64,
}

/// Exact integers one artifact cell must carry: `(path, value)` where
/// `path` is a `/`-separated member path (array index as a number).
type CellExpect = Vec<(String, u64)>;

/// Run the traced pass of `w` at `run_seed`; returns the per-layer
/// values (in `PER_LAYER` order) and the recorded spans.
pub fn traced_run(
    w: &Workload,
    run_seed: u64,
    root: &Path,
    checks: &mut Checks,
) -> (Values, Tracer) {
    let mut t = Tracer::new();
    let mut c = Counts::default();
    let sweep_trace = format!("{}/0", w.name);
    t.span("trace", &sweep_trace, |t| {
        for &(name, committed) in w.specs {
            let spec = Spec::build(w.family, name, run_seed, 0);
            let expected = match &spec {
                Spec::Campaign(s) => replay_campaign(t, s, &sweep_trace, &mut c),
                Spec::Topo(s) => replay_topo(t, s, &sweep_trace, &mut c, checks),
            };
            let run = t.span("campaign.sweep", &sweep_trace, |_| {
                spec.run_engine(1, w.sim_threads)
            });
            let run = match run {
                Ok(run) => run,
                Err(e) => {
                    checks.check(false, || format!("{name}: engine run failed: {e}"));
                    continue;
                }
            };
            let valid = t.span("campaign.validate", &sweep_trace, |_| {
                spec.validate(&run.text)
            });
            let pinned = (run_seed == 0).then(|| root.join(committed));
            run.check(name, valid, pinned.as_deref(), checks);
            c.artifact_bytes += run.text.len() as u64;
            cross_check(name, &run.text, &expected, checks);
        }
    });
    (values(&t, &c, w), t)
}

/// Compare the replay's exact per-cell integers with the artifact.
fn cross_check(name: &str, text: &str, expected: &[CellExpect], checks: &mut Checks) {
    let doc = parse(text).ok();
    let cells = doc
        .as_ref()
        .and_then(|d| d.get("cells"))
        .and_then(Json::as_arr)
        .unwrap_or(&[]);
    checks.check(cells.len() == expected.len(), || {
        format!(
            "{name}: artifact has {} cells, replay {}",
            cells.len(),
            expected.len()
        )
    });
    for (i, (cell, want)) in cells.iter().zip(expected).enumerate() {
        let mismatch = want.iter().find(|(path, value)| {
            let got = path
                .split('/')
                .try_fold(cell, |node, key| match key.parse::<usize>() {
                    Ok(idx) => node.as_arr()?.get(idx),
                    Err(_) => node.get(key),
                });
            got.and_then(Json::as_u64) != Some(*value)
        });
        checks.check(mismatch.is_none(), || {
            format!("{name} cell {i}: replay and engine disagree on {mismatch:?}")
        });
    }
}

/// A router model the replay can drive: the same action dispatch as
/// `Scenario::run_{bdr,dra}_windowed`.
trait Replayable: Model + Sized {
    fn apply(&mut self, action: &Action, now: f64);
    fn metrics(&self) -> &RouterMetrics;
}

impl Replayable for BdrRouter {
    fn apply(&mut self, action: &Action, now: f64) {
        match action {
            Action::FailComponent(lc, kind) => self.fail_component_now(*lc, *kind, now),
            Action::RepairLc(lc) => self.repair_lc_now(*lc, now),
            Action::FailEib | Action::RepairEib => {}
            Action::FailFabricPlane => self.fabric.fail_plane(),
            Action::RepairFabricPlane => self.fabric.repair_plane(),
            Action::AnnounceRoute(p, nh) => self.announce_route(*p, *nh),
            Action::WithdrawRoute(p) => {
                self.withdraw_route(*p);
            }
        }
    }

    fn metrics(&self) -> &RouterMetrics {
        &self.metrics
    }
}

impl Replayable for DraRouter {
    fn apply(&mut self, action: &Action, now: f64) {
        match action {
            Action::FailComponent(lc, kind) => self.fail_component_now(*lc, *kind, now),
            Action::RepairLc(lc) => self.repair_lc_now(*lc, now),
            Action::FailEib => self.fail_eib_now(now),
            Action::RepairEib => self.repair_eib_now(now),
            Action::FailFabricPlane => self.fabric.fail_plane(),
            Action::RepairFabricPlane => self.fabric.repair_plane(),
            Action::AnnounceRoute(p, nh) => self.announce_route(*p, *nh),
            Action::WithdrawRoute(p) => {
                self.withdraw_route(*p);
            }
        }
    }

    fn metrics(&self) -> &RouterMetrics {
        &self.metrics
    }
}

/// `Scenario::run_*_windowed` on an already-constructed simulation,
/// through `Simulation::run_until` at each scripted instant; returns
/// the windowed metrics and the events the kernel delivered.
fn replay<M: Replayable>(
    mut sim: Simulation<M>,
    scenario: &Scenario,
    measure_from_s: f64,
) -> (WindowedMetrics, u64) {
    let mut timeline = scenario.events().to_vec();
    timeline.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite times"));
    let mut snapshot: Option<RouterMetrics> = None;
    for (at, action) in timeline {
        if snapshot.is_none() && at > measure_from_s {
            sim.run_until(measure_from_s);
            snapshot = Some(sim.model().metrics().clone());
        }
        sim.run_until(at);
        let now = sim.now();
        sim.model_mut().apply(&action, now);
    }
    if snapshot.is_none() {
        sim.run_until(measure_from_s);
        snapshot = Some(sim.model().metrics().clone());
    }
    sim.run_until(scenario.horizon());
    let events = sim.events_processed();
    let windowed = WindowedMetrics {
        full: sim.model().metrics().clone(),
        at_window_start: snapshot.expect("snapshot taken"),
    };
    (windowed, events)
}

fn replay_campaign(
    t: &mut Tracer,
    s: &CampaignSpec,
    sweep: &str,
    c: &mut Counts,
) -> Vec<CellExpect> {
    let mut expected = Vec::new();
    for (ci, cell) in s.cells.iter().enumerate() {
        let n = cell.config.n_lcs;
        let mut drops = [0u64; DropCause::ALL.len()];
        let mut offered = vec![0u64; n];
        let mut delivered = vec![0u64; n];
        let (mut eib_packets, mut eib_collisions) = (0u64, 0u64);
        for rep in 0..cell.replications as u64 {
            let id = format!("{sweep}/{}#{ci}/{rep}", s.name);
            let (w, events, allocs) = t.span("rep", &id, |t| {
                let scenario = t.span("core.fault_sample", &id, |_| {
                    sample_scenario(s.master_seed, cell, rep)
                });
                c.fault_actions += scenario.len() as u64;
                let router = t.span("router.build", &id, |_| {
                    build_router(cell, router_seed(s.master_seed, cell, rep))
                });
                let a0 = allocations();
                let (w, events) = match router {
                    RouterSim::Bdr(sim) => t.span("router.bdr_run", &id, |_| {
                        replay(sim, &scenario, cell.measure_from_s)
                    }),
                    RouterSim::Dra(sim) => t.span("core.dra_run", &id, |_| {
                        replay(sim, &scenario, cell.measure_from_s)
                    }),
                };
                (w, events, allocations() - a0)
            });
            c.events += events;
            c.router_allocs += allocs;
            let m = &w.full;
            c.offered_pkts += m.lcs.iter().map(|lc| lc.offered_packets).sum::<u64>();
            c.delivered_pkts += m.lcs.iter().map(|lc| lc.delivered_packets).sum::<u64>();
            c.covered_packets += m.lcs.iter().map(|lc| lc.covered_packets).sum::<u64>();
            c.eib_packets += m.eib_packets;
            c.eib_collisions += m.eib_collisions;
            eib_packets += m.eib_packets;
            eib_collisions += m.eib_collisions;
            for (slot, cause) in DropCause::ALL.iter().enumerate() {
                drops[slot] += m.total_drops(*cause);
            }
            for lc in 0..n {
                offered[lc] += w.window_offered_bytes(lc);
                delivered[lc] += w.window_delivered_bytes(lc);
            }
        }
        let mut want: CellExpect = vec![
            ("eib/packets".into(), eib_packets),
            ("eib/collisions".into(), eib_collisions),
        ];
        for (slot, cause) in DropCause::ALL.iter().enumerate() {
            want.push((format!("drops/{cause}"), drops[slot]));
        }
        for lc in 0..n {
            want.push((format!("window/offered_bytes/{lc}"), offered[lc]));
            want.push((format!("window/delivered_bytes/{lc}"), delivered[lc]));
        }
        expected.push(want);
    }
    expected
}

/// Everything the engine's cell record derives from one run's stats.
fn stats_key(s: &NetStats) -> (u64, u64, u64, [u64; 8], Vec<u64>, [u64; 2]) {
    (
        s.injected,
        s.delivered,
        s.in_flight,
        s.drops,
        s.flow_delivered.clone(),
        [s.latency.mean().to_bits(), s.hops.mean().to_bits()],
    )
}

fn replay_topo(
    t: &mut Tracer,
    s: &TopoSpec,
    sweep: &str,
    c: &mut Counts,
    checks: &mut Checks,
) -> Vec<CellExpect> {
    let mut expected = Vec::new();
    for (ci, cell) in s.cells.iter().enumerate() {
        let (mut injected, mut delivered, mut in_flight) = (0u64, 0u64, 0u64);
        let mut drops = [0u64; 8];
        for rep in 0..cell.replications {
            let id = format!("{sweep}/{}#{ci}/{rep}", s.name);
            let sim_seed = derive_seed(
                s.master_seed,
                cell.seed_group,
                rep as u64,
                Stream::Simulation,
            );
            let serial = t.span("rep", &id, |t| {
                let topo = t.span("topo.topology", &id, |_| Topology::build(cell.topology));
                let routes = t.span("topo.routes", &id, |_| RouteTables::derive(&topo));
                let fibs = t.span("topo.fib_compile", &id, |_| compile_fibs(&topo, &routes));
                drop((topo, routes, fibs));

                let rss0 = status_kib("VmRSS");
                let net = t.span("topo.build_network", &id, |_| {
                    build_network(cell, s.master_seed, rep)
                });
                c.build_rss_kib = c
                    .build_rss_kib
                    .max(status_kib("VmRSS").saturating_sub(rss0));

                let a0 = allocations();
                let (net, kernel_events) = t.span("topo.run", &id, |_| {
                    let mut sim = net.simulation(sim_seed);
                    sim.run_until(cell.horizon_s);
                    let events = sim.events_processed();
                    (sim.into_model(), events)
                });
                c.serial_allocs += allocations() - a0;
                let router_events: u64 = (0..net.topo.n_nodes() as u32)
                    .map(|n| net.node(n).events_processed())
                    .sum();
                c.events += kernel_events + router_events;
                let serial = net.stats.clone();
                drop(net);

                let mut twin = t.span("probe.build_network", &id, |_| {
                    build_network(cell, s.master_seed, rep)
                });
                twin.cfg.sim_threads = 2;
                let a1 = allocations();
                let twin = t.span("des.pdes_run", &id, |_| twin.run(sim_seed, cell.horizon_s));
                c.pdes_allocs += allocations() - a1;
                checks.check(stats_key(&serial) == stats_key(&twin.stats), || {
                    format!("{id}: parallel engine differs from the serial kernel")
                });
                serial
            });
            checks.check(serial.conserved(), || {
                format!("{id}: packet conservation violated")
            });
            let hops = (serial.hops.mean() * serial.hops.count() as f64).round() as u64;
            c.topo_hops += hops;
            c.topo_injected += serial.injected;
            c.topo_delivered += serial.delivered;
            c.topo_drops += serial.drops.iter().sum::<u64>();
            injected += serial.injected;
            delivered += serial.delivered;
            in_flight += serial.in_flight;
            for (acc, d) in drops.iter_mut().zip(serial.drops) {
                *acc += d;
            }
        }
        let mut want: CellExpect = vec![
            ("injected".into(), injected),
            ("delivered".into(), delivered),
            ("in_flight".into(), in_flight),
        ];
        for cause in NetDropCause::ALL {
            want.push((format!("drops/{}", cause.name()), drops[cause.index()]));
        }
        expected.push(want);
    }
    expected
}

/// The per-layer rows, in `PER_LAYER` order.
fn values(t: &Tracer, c: &Counts, w: &Workload) -> Values {
    let topology = t.self_time("topo.topology");
    let routes = t.self_time("topo.routes");
    let fib = t.self_time("topo.fib_compile");
    let build = t.self_time("topo.build_network");
    let node_state = build - topology - routes - fib;
    let run = t.self_time("topo.run");
    let pdes = t.self_time("des.pdes_run");
    let fault_sample = t.self_time("core.fault_sample");
    let router_build = t.self_time("router.build");
    let bdr_run = t.self_time("router.bdr_run");
    let dra_run = t.self_time("core.dra_run");
    let sweep = t.self_time("campaign.sweep");
    let validate = t.self_time("campaign.validate");

    // The engine call at workers 1 repeats the replayed cells' work;
    // what it spends beyond them is the sweep envelope.
    let cells = match w.sim_threads {
        1 => build + run,
        _ => build + pdes,
    } + fault_sample
        + router_build
        + bdr_run
        + dra_run;
    let probes = t.duration("topo.topology")
        + t.duration("topo.routes")
        + t.duration("topo.fib_compile")
        + t.duration("probe.build_network");
    let total = t.duration("trace") - probes;
    let rows =
        build + run + pdes + fault_sample + router_build + bdr_run + dra_run + sweep + validate;
    let hops = c.topo_hops as f64;
    let events = c.events as f64;
    vec![
        ("topo.topology_s", topology),
        ("topo.routes_s", routes),
        ("topo.fib_compile_s", fib),
        ("topo.node_state_s", node_state),
        ("topo.build_rss_mb", c.build_rss_kib as f64 / 1024.0),
        ("topo.run_s", run),
        ("topo.ns_per_hop", ratio(run * 1e9, hops)),
        ("topo.allocs_per_hop", ratio(c.serial_allocs as f64, hops)),
        ("topo.hops", hops),
        ("topo.injected", c.topo_injected as f64),
        ("topo.delivered", c.topo_delivered as f64),
        ("topo.drops", c.topo_drops as f64),
        (
            "topo.delivery_ratio",
            ratio(c.topo_delivered as f64, c.topo_injected as f64),
        ),
        ("des.events", events),
        ("des.pdes_run_s", pdes),
        ("des.pdes_vs_serial", ratio(run, pdes)),
        ("des.pdes_allocs_per_hop", ratio(c.pdes_allocs as f64, hops)),
        ("core.fault_sample_s", fault_sample),
        ("core.fault_actions", c.fault_actions as f64),
        ("core.dra_run_s", dra_run),
        ("core.eib_packets", c.eib_packets as f64),
        ("core.eib_collisions", c.eib_collisions as f64),
        ("core.covered_packets", c.covered_packets as f64),
        ("router.build_s", router_build),
        ("router.bdr_run_s", bdr_run),
        (
            "router.ns_per_event",
            ratio((bdr_run + dra_run) * 1e9, events),
        ),
        (
            "router.allocs_per_event",
            ratio(c.router_allocs as f64, events),
        ),
        ("router.offered_pkts", c.offered_pkts as f64),
        ("router.delivered_pkts", c.delivered_pkts as f64),
        (
            "router.delivery_ratio",
            ratio(c.delivered_pkts as f64, c.offered_pkts as f64),
        ),
        ("campaign.sweep_s", sweep),
        ("campaign.envelope_s", sweep - cells),
        ("campaign.validate_s", validate),
        ("campaign.artifact_kb", c.artifact_bytes as f64 / 1024.0),
        ("trace.total_s", total),
        ("trace.residual_s", total - rows),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PER_LAYER;
    use crate::workload::WORKLOADS;

    #[test]
    fn emitted_rows_equal_the_per_layer_list() {
        let t = Tracer::new();
        for w in &WORKLOADS {
            let names: Vec<&str> = values(&t, &Counts::default(), w)
                .iter()
                .map(|v| v.0)
                .collect();
            let want: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
            assert_eq!(names, want, "{}", w.name);
        }
    }

    #[test]
    fn layers_and_residual_sum_to_the_traced_total() {
        // A synthetic trace with every layer span, probes included.
        let mut t = Tracer::new();
        let spin = |_: &mut Tracer| std::hint::black_box((0..20_000u64).sum::<u64>());
        t.span("trace", "w/0", |t| {
            t.span("rep", "w/0/s#0/0", |t| {
                for name in [
                    "topo.topology",
                    "topo.routes",
                    "topo.fib_compile",
                    "topo.build_network",
                    "topo.run",
                    "probe.build_network",
                    "des.pdes_run",
                    "core.fault_sample",
                    "router.build",
                    "router.bdr_run",
                    "core.dra_run",
                ] {
                    t.span(name, "w/0/s#0/0", spin);
                }
            });
            t.span("campaign.sweep", "w/0", spin);
            t.span("campaign.validate", "w/0", spin);
        });
        let v = values(&t, &Counts::default(), &WORKLOADS[2]);
        let get = |n: &str| v.iter().find(|x| x.0 == n).unwrap().1;
        let rows: f64 = [
            "topo.topology_s",
            "topo.routes_s",
            "topo.fib_compile_s",
            "topo.node_state_s",
            "topo.run_s",
            "des.pdes_run_s",
            "core.fault_sample_s",
            "router.build_s",
            "router.bdr_run_s",
            "core.dra_run_s",
            "campaign.sweep_s",
            "campaign.validate_s",
            "trace.residual_s",
        ]
        .iter()
        .map(|n| get(n))
        .sum();
        let total = get("trace.total_s");
        assert!(total > 0.0);
        assert!((rows - total).abs() < 1e-9, "{rows} vs {total}");
    }
}
