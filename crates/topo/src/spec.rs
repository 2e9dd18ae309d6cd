//! Declarative topo-sweep specs and their canonical manifests.
//!
//! A [`TopoSpec`] is a grid of [`TopoCellSpec`]s — architecture ×
//! topology × fault spec × traffic — exactly parallel to
//! [`dra_campaign::spec::CampaignSpec`] and, like it, a
//! [`Sweep`]. The manifest serializes every behavior-relevant field in
//! a fixed order; its FNV-1a digest stamps the artifact, so two
//! artifacts with equal digests came from equal experiments.
//!
//! Determinism contract (same as the campaign layer, one level up):
//! cell results are pure functions of `(master_seed, seed_group,
//! replication, cell parameters)`. Worker count, scheduling order, and
//! resume history cannot change a byte of the artifact. BDR/DRA twin
//! cells share a `seed_group`, giving both architectures identical
//! flow placements, arrival processes, and fault timelines.

use crate::link::LinkConfig;
use crate::routes::MAX_DIAMETER;
use crate::stats::NetDropCause;
use crate::topology::TopologyKind;
use dra_campaign::json::Json;
use dra_campaign::report::Table;
use dra_campaign::sweep::{check_declared, check_stat, Sweep};
use dra_core::health::ArchKind;

/// Network-level fault model of one cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TopoFaultSpec {
    /// No faults (calibration baseline).
    None,
    /// At `at_s`, degrade `k` spread-sampled routers: fail the SRU on
    /// every even-indexed linecard (half the ports). BDR loses those
    /// ports; DRA covers them over the EIB — the headline comparison.
    FailRouters {
        /// Number of degraded routers.
        k: u32,
        /// Failure instant, seconds.
        at_s: f64,
    },
    /// At `at_s`, cut `k` spread-sampled cables (both directions).
    FailLinks {
        /// Number of cut links.
        k: u32,
        /// Failure instant, seconds.
        at_s: f64,
    },
    /// Every router runs its own renewal fault process
    /// ([`dra_core::scenario::FaultProcess`], per-component paper
    /// rates, hot-swap repair) sampled on the node's private seed
    /// stream. `delay_scale` maps sampled hours to simulated seconds —
    /// smaller is a harsher effective fault rate.
    Renewal {
        /// Hours → seconds compression factor.
        delay_scale: f64,
        /// Repair time in (pre-scale) hours.
        repair_h: f64,
    },
}

impl TopoFaultSpec {
    /// Short stable label for cell ids.
    pub fn label(&self) -> String {
        match self {
            TopoFaultSpec::None => "healthy".into(),
            TopoFaultSpec::FailRouters { k, .. } => format!("r{k}"),
            TopoFaultSpec::FailLinks { k, .. } => format!("l{k}"),
            TopoFaultSpec::Renewal { delay_scale, .. } => format!("renewal-{delay_scale:e}"),
        }
    }

    fn manifest(&self) -> Json {
        match *self {
            TopoFaultSpec::None => Json::obj(vec![("kind", Json::Str("none".into()))]),
            TopoFaultSpec::FailRouters { k, at_s } => Json::obj(vec![
                ("kind", Json::Str("fail_routers".into())),
                ("k", Json::Num(k as f64)),
                ("at_s", Json::Num(at_s)),
            ]),
            TopoFaultSpec::FailLinks { k, at_s } => Json::obj(vec![
                ("kind", Json::Str("fail_links".into())),
                ("k", Json::Num(k as f64)),
                ("at_s", Json::Num(at_s)),
            ]),
            TopoFaultSpec::Renewal {
                delay_scale,
                repair_h,
            } => Json::obj(vec![
                ("kind", Json::Str("renewal".into())),
                ("delay_scale", Json::Num(delay_scale)),
                ("repair_h", Json::Num(repair_h)),
            ]),
        }
    }
}

/// Traffic of one cell: `n_flows` Poisson flows between distinct
/// host nodes drawn from the cell's seed-group stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowSpec {
    /// Number of concurrent flows.
    pub n_flows: u32,
    /// Per-flow mean packet rate, packets/second.
    pub rate_pps: f64,
    /// End-to-end packet size, bytes.
    pub packet_bytes: u32,
}

/// One grid cell of a topo sweep.
#[derive(Debug, Clone)]
pub struct TopoCellSpec {
    /// Unique human-readable id (e.g. `bdr/mesh-4x4/r2`).
    pub id: String,
    /// Architecture under test.
    pub arch: ArchKind,
    /// Topology to instantiate.
    pub topology: TopologyKind,
    /// Link parameters.
    pub link: LinkConfig,
    /// Traffic.
    pub flows: FlowSpec,
    /// Fault model.
    pub faults: TopoFaultSpec,
    /// Simulated horizon, seconds.
    pub horizon_s: f64,
    /// Injection stops `drain_s` before the horizon so in-flight
    /// packets resolve.
    pub drain_s: f64,
    /// Independent replications (aggregated with Welford).
    pub replications: u32,
    /// Seed-derivation group: cells sharing a group (BDR/DRA twins)
    /// see identical flow placements, arrivals, and fault timelines.
    pub seed_group: u64,
}

/// The topology a cell manifest's `topology` object declares (the
/// inverse of [`TopoCellSpec`]'s manifest rendering).
fn topology_from_manifest(t: &Json) -> Option<TopologyKind> {
    let num = |key: &str| t.get(key).and_then(Json::as_u64);
    match t.get("kind").and_then(Json::as_str)? {
        "fat_tree" => Some(TopologyKind::FatTree {
            k: num("k")?.try_into().ok()?,
        }),
        "mesh2d" => Some(TopologyKind::Mesh2D {
            rows: num("rows")?.try_into().ok()?,
            cols: num("cols")?.try_into().ok()?,
        }),
        "barabasi_albert" => Some(TopologyKind::BarabasiAlbert {
            n: num("n")?.try_into().ok()?,
            m: num("m")?.try_into().ok()?,
            seed: num("seed")?,
        }),
        _ => None,
    }
}

impl TopoCellSpec {
    fn manifest(&self) -> Json {
        let t = match self.topology {
            TopologyKind::FatTree { k } => Json::obj(vec![
                ("kind", Json::Str("fat_tree".into())),
                ("k", Json::Num(k as f64)),
            ]),
            TopologyKind::Mesh2D { rows, cols } => Json::obj(vec![
                ("kind", Json::Str("mesh2d".into())),
                ("rows", Json::Num(rows as f64)),
                ("cols", Json::Num(cols as f64)),
            ]),
            TopologyKind::BarabasiAlbert { n, m, seed } => Json::obj(vec![
                ("kind", Json::Str("barabasi_albert".into())),
                ("n", Json::Num(n as f64)),
                ("m", Json::Num(m as f64)),
                ("seed", Json::Num(seed as f64)),
            ]),
        };
        Json::obj(vec![
            ("id", Json::Str(self.id.clone())),
            ("arch", Json::Str(self.arch.label().into())),
            ("topology", t),
            (
                "link",
                Json::obj(vec![
                    ("latency_s", Json::Num(self.link.latency_s)),
                    ("bandwidth_bps", Json::Num(self.link.bandwidth_bps)),
                    ("max_backlog_s", Json::Num(self.link.max_backlog_s)),
                ]),
            ),
            (
                "flows",
                Json::obj(vec![
                    ("n_flows", Json::Num(self.flows.n_flows as f64)),
                    ("rate_pps", Json::Num(self.flows.rate_pps)),
                    ("packet_bytes", Json::Num(self.flows.packet_bytes as f64)),
                ]),
            ),
            ("faults", self.faults.manifest()),
            ("horizon_s", Json::Num(self.horizon_s)),
            ("drain_s", Json::Num(self.drain_s)),
            ("replications", Json::Num(self.replications as f64)),
            ("seed_group", Json::Num(self.seed_group as f64)),
        ])
    }
}

/// A whole topo sweep.
#[derive(Debug, Clone)]
pub struct TopoSpec {
    /// Sweep name (artifact + default output file name).
    pub name: String,
    /// One-line description.
    pub description: String,
    /// Master seed all per-cell streams derive from.
    pub master_seed: u64,
    /// The grid.
    pub cells: Vec<TopoCellSpec>,
}

impl Sweep for TopoSpec {
    const FORMAT: &'static str = "dra-topo/v1";

    fn name(&self) -> &str {
        &self.name
    }

    fn description(&self) -> &str {
        &self.description
    }

    fn master_seed(&self) -> u64 {
        self.master_seed
    }

    fn n_cells(&self) -> usize {
        self.cells.len()
    }

    fn cell_id(&self, i: usize) -> &str {
        &self.cells[i].id
    }

    fn cell_manifest(&self, i: usize) -> Json {
        self.cells[i].manifest()
    }

    /// Rejects degenerate cell parameters.
    fn validate(&self) -> Result<(), String> {
        for c in &self.cells {
            let id = &c.id;
            if !(c.horizon_s > 0.0 && c.horizon_s.is_finite()) {
                return Err(format!("{id}: horizon must be positive and finite"));
            }
            if !(c.drain_s >= 0.0 && c.drain_s < c.horizon_s) {
                return Err(format!("{id}: drain must leave an injection window"));
            }
            if c.replications < 1 {
                return Err(format!("{id}: no replications"));
            }
            if !(c.flows.n_flows >= 1 && c.flows.rate_pps > 0.0) || c.flows.packet_bytes == 0 {
                return Err(format!(
                    "{id}: flows need a count, a positive rate and a size"
                ));
            }
            if let TopoFaultSpec::FailRouters { at_s, .. } | TopoFaultSpec::FailLinks { at_s, .. } =
                c.faults
            {
                if !(0.0..c.horizon_s).contains(&at_s) {
                    return Err(format!("{id}: fault instant outside horizon"));
                }
            }
            if let TopologyKind::Mesh2D { rows, cols } = c.topology {
                // The one family whose diameter grows linearly with N;
                // `Forwarding::compile` checks every topology's routes.
                let diameter = (rows as u64 + cols as u64).saturating_sub(2);
                if diameter > MAX_DIAMETER as u64 {
                    return Err(format!(
                        "{id}: diameter {diameter} exceeds the {MAX_DIAMETER}-hop budget \
                         of the packet's u8 hop fields"
                    ));
                }
            }
            if let TopoFaultSpec::FailRouters { k, .. } = c.faults {
                let n = c.topology.n_nodes();
                if k as usize > n {
                    return Err(format!("{id}: cannot fail {k} of {n} routers"));
                }
            }
            if let TopoFaultSpec::Renewal {
                delay_scale,
                repair_h,
            } = c.faults
            {
                if !(delay_scale > 0.0 && repair_h > 0.0) {
                    return Err(format!(
                        "{id}: renewal needs positive delay scale and repair"
                    ));
                }
            }
        }
        Ok(())
    }

    /// The cell's `arch` and `topology` (its manifest rendered to a
    /// label), well-formed replication statistics ([`check_stat`]),
    /// network packet conservation (`injected =
    /// delivered + dropped + in_flight`), a delivery ratio in `[0, 1]`,
    /// and no packet over its hop budget: the budget is the routed
    /// diameter and routes are loop-free min-hop, so a `ttl_exceeded`
    /// drop is a routing bug.
    fn check_record(record: &Json, cell: &Json) -> Result<bool, String> {
        check_declared(record, "arch", cell.get("arch").and_then(Json::as_str))?;
        let topology = cell.get("topology").and_then(topology_from_manifest);
        check_declared(record, "topology", topology.map(|t| t.label()).as_deref())?;
        let replications = cell
            .get("replications")
            .and_then(Json::as_u64)
            .ok_or("manifest cell missing replications")?;
        for key in ["delivery_ratio", "flow_availability", "latency_s", "hops"] {
            check_stat(record, key, replications)?;
        }
        let num = |key: &str| -> Result<u64, String> {
            record
                .get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing {key}"))
        };
        let injected = num("injected")?;
        let delivered = num("delivered")?;
        let in_flight = num("in_flight")?;
        let Some(Json::Obj(drops)) = record.get("drops") else {
            return Err("missing drops object".into());
        };
        let dropped: u64 = drops.iter().filter_map(|(_, v)| v.as_u64()).sum();
        if injected != delivered + dropped + in_flight {
            return Err(format!(
                "conservation violated: {injected} != {delivered} + {dropped} + {in_flight}"
            ));
        }
        let ratio = record
            .get("delivery_ratio")
            .and_then(|d| d.get("mean"))
            .and_then(Json::as_f64)
            .ok_or("missing delivery_ratio.mean")?;
        if !(0.0..=1.0).contains(&ratio) {
            return Err(format!("delivery ratio {ratio} outside [0,1]"));
        }
        let ttl = drops
            .iter()
            .find(|(k, _)| k == NetDropCause::TtlExceeded.name())
            .and_then(|(_, v)| v.as_u64())
            .ok_or("missing drops.ttl_exceeded")?;
        if ttl > 0 {
            return Err(format!(
                "{ttl} packets exceeded the routed-diameter hop budget"
            ));
        }
        Ok(true)
    }

    fn grid_table(&self) -> Table {
        let rows = self
            .cells
            .iter()
            .map(|c| {
                vec![
                    c.id.clone(),
                    c.arch.label().into(),
                    c.topology.label(),
                    c.faults.label(),
                    format!("{}", c.flows.n_flows),
                    format!("{}", c.replications),
                    format!("{}", c.seed_group),
                ]
            })
            .collect();
        (
            vec!["id", "arch", "topology", "faults", "flows", "reps", "group"],
            rows,
        )
    }

    fn result_table(artifact: &Json) -> Table {
        let mean = |c: &Json, key: &str| {
            c.get(key)
                .and_then(|d| d.get("mean"))
                .and_then(Json::as_f64)
        };
        let rows = artifact
            .get("cells")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .map(|c| {
                let id = c.get("id").and_then(Json::as_str).unwrap_or("?").into();
                if let Some(err) = c.get("error").and_then(Json::as_str) {
                    let mut row = vec![id, format!("ERROR: {err}")];
                    row.resize(5, String::new());
                    return row;
                }
                vec![
                    id,
                    format!("{}", c.get("injected").and_then(Json::as_u64).unwrap_or(0)),
                    mean(c, "delivery_ratio")
                        .map(|v| format!("{v:.6}"))
                        .unwrap_or_default(),
                    mean(c, "flow_availability")
                        .map(|v| format!("{v:.4}"))
                        .unwrap_or_default(),
                    mean(c, "latency_s")
                        .map(|v| format!("{:.1}", v * 1e6))
                        .unwrap_or_default(),
                ]
            })
            .collect();
        (
            vec!["id", "injected", "delivery", "flow_avail", "latency_us"],
            rows,
        )
    }

    /// Topo artifacts land under `results/topo_<name>.json`.
    fn artifact_stem(&self) -> String {
        format!("topo_{}", self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(id: &str) -> TopoCellSpec {
        TopoCellSpec {
            id: id.into(),
            arch: ArchKind::Bdr,
            topology: TopologyKind::Mesh2D { rows: 3, cols: 3 },
            link: LinkConfig::default(),
            flows: FlowSpec {
                n_flows: 4,
                rate_pps: 1e4,
                packet_bytes: 700,
            },
            faults: TopoFaultSpec::None,
            horizon_s: 1e-2,
            drain_s: 2e-3,
            replications: 1,
            seed_group: 0,
        }
    }

    #[test]
    fn digest_tracks_content() {
        let spec = TopoSpec {
            name: "t".into(),
            description: "d".into(),
            master_seed: 1,
            cells: vec![cell("a")],
        };
        spec.validate().unwrap();
        let d1 = spec.digest();
        assert_eq!(d1.len(), 16);
        let mut spec2 = spec.clone();
        assert_eq!(spec2.digest(), d1, "digest is a pure function");
        spec2.cells[0].flows.rate_pps = 2e4;
        assert_ne!(spec2.digest(), d1, "digest sees traffic changes");
    }

    #[test]
    fn failing_more_routers_than_exist_rejected() {
        let mut c = cell("a");
        c.faults = TopoFaultSpec::FailRouters { k: 10, at_s: 1e-3 };
        let err = TopoSpec {
            name: "t".into(),
            description: "d".into(),
            master_seed: 1,
            cells: vec![c],
        }
        .validate()
        .unwrap_err();
        assert!(err.contains("a: cannot fail 10 of 9 routers"), "{err}");
    }

    #[test]
    fn mesh_beyond_the_hop_budget_rejected() {
        let mut c = cell("a");
        c.topology = TopologyKind::Mesh2D { rows: 2, cols: 255 };
        let err = TopoSpec {
            name: "t".into(),
            description: "d".into(),
            master_seed: 1,
            cells: vec![c],
        }
        .validate()
        .unwrap_err();
        assert!(err.contains("a: diameter 255 exceeds"), "{err}");
    }

    #[test]
    fn a_ttl_drop_fails_the_record_check() {
        // One replication's statistic: every value `v`.
        let stat = |v: f64| {
            Json::obj(vec![
                ("n", Json::Num(1.0)),
                ("mean", Json::Num(v)),
                ("ci95", Json::Num(0.0)),
                ("min", Json::Num(v)),
                ("max", Json::Num(v)),
            ])
        };
        let record = |ttl: f64| {
            Json::obj(vec![
                ("arch", Json::Str("dra".into())),
                ("topology", Json::Str("fat-tree-k4".into())),
                ("injected", Json::Num(10.0)),
                ("delivered", Json::Num(10.0 - ttl)),
                ("in_flight", Json::Num(0.0)),
                ("drops", Json::obj(vec![("ttl_exceeded", Json::Num(ttl))])),
                ("delivery_ratio", stat(1.0 - ttl / 10.0)),
                ("flow_availability", stat(1.0)),
                ("latency_s", stat(1e-5)),
                ("hops", stat(2.0)),
            ])
        };
        let cell = Json::obj(vec![
            ("arch", Json::Str("dra".into())),
            ("replications", Json::Num(1.0)),
            (
                "topology",
                Json::obj(vec![
                    ("kind", Json::Str("fat_tree".into())),
                    ("k", Json::Num(4.0)),
                ]),
            ),
        ]);
        assert_eq!(TopoSpec::check_record(&record(0.0), &cell), Ok(true));
        let err = TopoSpec::check_record(&record(3.0), &cell).unwrap_err();
        assert!(err.contains("3 packets exceeded"), "{err}");
    }

    #[test]
    fn duplicate_ids_rejected() {
        let spec = TopoSpec {
            name: "t".into(),
            description: "d".into(),
            master_seed: 1,
            cells: vec![cell("a"), cell("a")],
        };
        let err = dra_campaign::sweep::check_spec(&spec).unwrap_err();
        assert!(err.contains("duplicate cell id"), "{err}");
    }
}
