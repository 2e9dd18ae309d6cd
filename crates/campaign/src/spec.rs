//! Campaign specifications: the declarative description of an
//! experiment grid.
//!
//! A [`CampaignSpec`] is a list of [`CellSpec`]s — one cell per
//! (architecture, router config, scenario, replication count) point —
//! plus a single master seed. Everything stochastic about a campaign
//! derives from the spec: per-replication RNG streams come from
//! `(master_seed, seed_group, replication)` via [`crate::seed`], so a
//! spec pins its results bit-for-bit regardless of worker count.
//!
//! The spec is a [`Sweep`]: its canonical JSON *manifest* and FNV-1a
//! digest stamp checkpoints and artifacts, so a resume against an
//! edited spec is rejected instead of producing a franken-artifact.

use crate::json::Json;
use crate::report::Table;
use crate::sweep::Sweep;
use dra_core::scenario::{Action, FaultProcess, Scenario};
use dra_router::bdr::BdrConfig;

/// Which router architecture a cell runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arch {
    /// The baseline bus/crossbar router.
    Bdr,
    /// The paper's dependable router (EIB + coverage).
    Dra,
}

impl Arch {
    /// Stable lowercase name used in ids and artifacts.
    pub fn name(self) -> &'static str {
        match self {
            Arch::Bdr => "bdr",
            Arch::Dra => "dra",
        }
    }
}

/// How a cell obtains its fault timeline.
#[derive(Debug, Clone)]
pub enum ScenarioTemplate {
    /// A fixed, fully scripted timeline (every replication replays
    /// it; replications then only vary the traffic stream).
    Explicit(Scenario),
    /// Sample a fresh random timeline per replication from a fault
    /// process, on the replication's dedicated `Faults` RNG stream.
    Sampled {
        /// The fault/repair process to sample from.
        process: FaultProcess,
        /// Simulated horizon of each sampled timeline (seconds).
        horizon_s: f64,
    },
}

impl ScenarioTemplate {
    /// The simulated horizon of timelines this template produces.
    pub fn horizon_s(&self) -> f64 {
        match self {
            ScenarioTemplate::Explicit(s) => s.horizon(),
            ScenarioTemplate::Sampled { horizon_s, .. } => *horizon_s,
        }
    }
}

/// One grid point of a campaign.
#[derive(Debug, Clone)]
pub struct CellSpec {
    /// Human-readable cell id, unique within the campaign
    /// (e.g. `"dra/load30/x2"`).
    pub id: String,
    /// Architecture under test.
    pub arch: Arch,
    /// Router configuration. Faults come from the scenario timeline,
    /// so both architectures replay identical failure histories.
    pub config: BdrConfig,
    /// Fault timeline source.
    pub scenario: ScenarioTemplate,
    /// Independent replications (≥ 1).
    pub replications: usize,
    /// Metrics window start (seconds); 0.0 measures the whole run.
    /// Aggregated delivery ratios and per-LC byte counts cover
    /// `[measure_from_s, horizon]` only — full-run counters (drops,
    /// EIB totals) are reported alongside.
    pub measure_from_s: f64,
    /// Seed-derivation group. Cells sharing a group (and replication
    /// index) draw *identical* RNG streams — give a BDR cell and its
    /// DRA twin the same group and they see byte-identical offered
    /// traffic and fault timelines, the paper's apples-to-apples
    /// comparison made exact.
    pub seed_group: u64,
}

impl CellSpec {
    fn validate(&self, index: usize) -> Result<(), String> {
        if self.replications < 1 {
            return Err(format!("cell {index}: replications < 1"));
        }
        let horizon = self.scenario.horizon_s();
        if !(0.0..=horizon).contains(&self.measure_from_s) {
            return Err(format!(
                "cell {index} ({}): measure_from {} outside [0, {horizon}]",
                self.id, self.measure_from_s
            ));
        }
        Ok(())
    }

    /// Canonical JSON description (everything that affects results).
    pub fn manifest(&self) -> Json {
        let cfg = &self.config;
        let protocols: Vec<Json> = (0..cfg.n_lcs)
            .map(|lc| Json::Str(format!("{:?}", cfg.protocol_of(lc)).to_lowercase()))
            .collect();
        Json::obj(vec![
            ("id", Json::Str(self.id.clone())),
            ("arch", Json::Str(self.arch.name().to_string())),
            ("seed_group", Json::Num(self.seed_group as f64)),
            ("replications", Json::Num(self.replications as f64)),
            ("measure_from_s", Json::Num(self.measure_from_s)),
            (
                "config",
                Json::obj(vec![
                    ("n_lcs", Json::Num(cfg.n_lcs as f64)),
                    ("load", Json::Num(cfg.load)),
                    ("port_rate_bps", Json::Num(cfg.port_rate_bps)),
                    ("voq_capacity", Json::Num(cfg.voq_capacity as f64)),
                    ("islip_iterations", Json::Num(cfg.islip_iterations as f64)),
                    (
                        "fabric_planes_total",
                        Json::Num(cfg.fabric_planes_total as f64),
                    ),
                    (
                        "fabric_planes_required",
                        Json::Num(cfg.fabric_planes_required as f64),
                    ),
                    ("fabric_speedup", Json::Num(cfg.fabric_speedup)),
                    ("ports_per_lc", Json::Num(cfg.ports_per_lc as f64)),
                    ("reassembly_timeout_s", Json::Num(cfg.reassembly_timeout_s)),
                    ("protocols", Json::Arr(protocols)),
                ]),
            ),
            ("scenario", scenario_manifest(&self.scenario)),
        ])
    }
}

fn scenario_manifest(t: &ScenarioTemplate) -> Json {
    match t {
        ScenarioTemplate::Explicit(s) => {
            let events: Vec<Json> = s
                .events()
                .iter()
                .map(|(at, action)| {
                    Json::Arr(vec![Json::Num(*at), Json::Str(describe_action(action))])
                })
                .collect();
            Json::obj(vec![
                ("type", Json::Str("explicit".into())),
                ("horizon_s", Json::Num(s.horizon())),
                ("events", Json::Arr(events)),
            ])
        }
        ScenarioTemplate::Sampled { process, horizon_s } => {
            let r = &process.injector.rates;
            Json::obj(vec![
                ("type", Json::Str("sampled".into())),
                ("horizon_s", Json::Num(*horizon_s)),
                (
                    "granularity",
                    Json::Str(format!("{:?}", process.injector.granularity).to_lowercase()),
                ),
                (
                    "rates_per_h",
                    Json::obj(vec![
                        ("lc", Json::Num(r.lc)),
                        ("pdlu", Json::Num(r.pdlu)),
                        ("pi_units", Json::Num(r.pi_units)),
                        ("bus_controller", Json::Num(r.bus_controller)),
                        ("eib", Json::Num(r.eib)),
                    ]),
                ),
                ("repair", Json::Bool(process.repair)),
                ("repair_time_h", Json::Num(process.injector.repair_time_h)),
                ("delay_scale", Json::Num(process.delay_scale)),
            ])
        }
    }
}

fn describe_action(a: &Action) -> String {
    match a {
        Action::FailComponent(lc, kind) => {
            format!("fail-lc{lc}-{}", format!("{kind:?}").to_lowercase())
        }
        Action::RepairLc(lc) => format!("repair-lc{lc}"),
        Action::FailEib => "fail-eib".into(),
        Action::RepairEib => "repair-eib".into(),
        Action::FailFabricPlane => "fail-fabric-plane".into(),
        Action::RepairFabricPlane => "repair-fabric-plane".into(),
        Action::AnnounceRoute(p, nh) => format!("announce-{p:?}-via-lc{nh}"),
        Action::WithdrawRoute(p) => format!("withdraw-{p:?}"),
    }
}

/// A full experiment campaign.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Campaign name (also the default artifact file stem).
    pub name: String,
    /// One-line description for the artifact manifest.
    pub description: String,
    /// Master seed; every RNG stream in the campaign derives from it.
    pub master_seed: u64,
    /// The grid.
    pub cells: Vec<CellSpec>,
}

impl Sweep for CampaignSpec {
    const FORMAT: &'static str = "dra-campaign/v1";

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

    fn validate(&self) -> Result<(), String> {
        for (i, cell) in self.cells.iter().enumerate() {
            cell.validate(i)?;
        }
        Ok(())
    }

    /// A [`crate::engine`] record's `delivery.mean` is a byte-delivery
    /// ratio over the cell's measurement window. With the window at 0
    /// nothing is offered before it, so the ratio lies in `[0, 1]`. A
    /// later window can deliver bytes offered before it opened, so
    /// there the record can only prove the ratio non-negative.
    fn check_record(record: &Json, cell: &Json) -> Result<bool, String> {
        let mean = record
            .get("delivery")
            .and_then(|d| d.get("mean"))
            .and_then(Json::as_f64)
            .ok_or("missing delivery.mean")?;
        let measure_from = cell
            .get("measure_from_s")
            .and_then(Json::as_f64)
            .ok_or("manifest cell missing measure_from_s")?;
        if mean < 0.0 {
            return Err(format!("delivery.mean {mean} is negative"));
        }
        if measure_from == 0.0 && mean > 1.0 {
            return Err(format!(
                "delivery.mean {mean} above 1 with nothing offered before the window"
            ));
        }
        Ok(true)
    }

    fn grid_table(&self) -> Table {
        let rows = self
            .cells
            .iter()
            .map(|cell| {
                let scenario = match &cell.scenario {
                    ScenarioTemplate::Explicit(s) => {
                        format!("explicit ({} actions, {}s)", s.len(), s.horizon())
                    }
                    ScenarioTemplate::Sampled { horizon_s, .. } => {
                        format!("sampled ({horizon_s}s)")
                    }
                };
                vec![
                    cell.id.clone(),
                    cell.arch.name().into(),
                    format!("{}", cell.config.n_lcs),
                    format!("{:.2}", cell.config.load),
                    scenario,
                    format!("{}", cell.replications),
                    format!("{}", cell.seed_group),
                ]
            })
            .collect();
        (
            vec!["id", "arch", "lcs", "load", "scenario", "reps", "group"],
            rows,
        )
    }

    fn result_table(artifact: &Json) -> Table {
        crate::report::artifact_table(artifact)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dra_router::components::ComponentKind;

    fn tiny_spec() -> CampaignSpec {
        CampaignSpec {
            name: "t".into(),
            description: "test".into(),
            master_seed: 1,
            cells: vec![CellSpec {
                id: "dra/x".into(),
                arch: Arch::Dra,
                config: BdrConfig {
                    n_lcs: 3,
                    ..BdrConfig::default()
                },
                scenario: ScenarioTemplate::Explicit(
                    Scenario::new(1e-3).at(0.5e-3, Action::FailComponent(0, ComponentKind::Sru)),
                ),
                replications: 1,
                measure_from_s: 0.0,
                seed_group: 0,
            }],
        }
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let spec = tiny_spec();
        let d1 = spec.digest();
        assert_eq!(d1, spec.clone().digest());
        assert_eq!(d1.len(), 16);

        let mut other = spec.clone();
        other.master_seed = 2;
        assert_ne!(d1, other.digest(), "seed must change the digest");

        let mut other = spec;
        other.cells[0].replications = 2;
        assert_ne!(d1, other.digest(), "grid shape must change the digest");
    }

    #[test]
    fn manifest_captures_scenario_events() {
        let spec = tiny_spec();
        let m = spec.manifest();
        let cells = m.get("cells").unwrap().as_arr().unwrap();
        let sc = cells[0].get("scenario").unwrap();
        assert_eq!(sc.get("type").unwrap().as_str(), Some("explicit"));
        let ev = sc.get("events").unwrap().as_arr().unwrap();
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].as_arr().unwrap()[1].as_str(), Some("fail-lc0-sru"));
    }

    #[test]
    fn duplicate_ids_rejected() {
        let mut spec = tiny_spec();
        let dup = spec.cells[0].clone();
        spec.cells.push(dup);
        let err = crate::sweep::check_spec(&spec).unwrap_err();
        assert!(err.contains("duplicate cell id"), "{err}");
    }
}
