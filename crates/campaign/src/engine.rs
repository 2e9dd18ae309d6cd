//! Campaign execution: the packet-simulation cells of a
//! [`CampaignSpec`] run through the [`crate::sweep`] envelope
//! (worker pool, checkpoint/resume, validated atomic artifact).
//!
//! Every replication draws its RNG streams from
//! [`crate::seed::derive_seed`], not from any shared RNG, so a cell's
//! record is a pure function of the spec and the artifact is
//! byte-identical at any worker count and across interrupt/resume.

use crate::json::Json;
use crate::record::{declared, same, Fields, Record, Schema, Stat};
use crate::seed::{derive_seed, Stream};
use crate::spec::{Arch, CampaignSpec, ScenarioTemplate};
use crate::sweep;
use dra_core::scenario::Scenario;
use dra_core::sim::{DraConfig, DraRouter};
use dra_des::stats::Welford;
use dra_router::bdr::BdrRouter;
use dra_router::metrics::DropCause;
use rand::rngs::SmallRng;
use rand::SeedableRng;

pub use crate::sweep::{Outcome as CampaignOutcome, RunOptions};

/// Execute a campaign.
pub fn run(spec: &CampaignSpec, opts: &RunOptions) -> std::io::Result<CampaignOutcome> {
    sweep::run(spec, opts, |i| run_cell(spec, i))
}

/// Validate a `dra-campaign/v1` artifact, as `dra check` does. Returns
/// `(cells, error_cells)`.
pub fn validate_artifact(text: &str) -> Result<(usize, usize), String> {
    sweep::validate::<crate::spec::CellSpec>(text)
}

/// A `dra-campaign/v1` cell record: counts are summed over
/// replications, and `latency_s` has a sample only for replications
/// that delivered a packet.
#[derive(Debug, Default)]
pub struct CampaignRecord {
    arch: String,
    replications: u64,
    /// Windowed byte-delivery ratio, one sample per replication.
    pub delivery: Stat,
    latency_s: Stat,
    availability: Stat,
    drops: [u64; 8],
    eib: [u64; 4],
    /// Bytes offered inside the window, per linecard.
    pub offered_bytes: Vec<u64>,
    /// Bytes delivered inside the window, per linecard.
    pub delivered_bytes: Vec<u64>,
}

impl Schema for CampaignRecord {
    fn fields(&mut self, f: &mut Fields) {
        f.field("arch", &mut self.arch);
        f.field("replications", &mut self.replications);
        f.field("delivery", &mut self.delivery);
        f.field("latency_s", &mut self.latency_s);
        f.field("availability", &mut self.availability);
        let causes = DropCause::ALL.map(DropCause::name);
        f.counts("drops", &causes, &mut self.drops);
        let eib = ["packets", "bytes", "control_packets", "collisions"];
        f.counts("eib", &eib, &mut self.eib);
        f.object("window", |f| {
            f.field("offered_bytes", &mut self.offered_bytes);
            f.field("delivered_bytes", &mut self.delivered_bytes);
        });
    }
}

impl Record for CampaignRecord {
    const HEADERS: &'static [&'static str] = &[
        "cell", "id", "arch", "reps", "delivery", "ci95", "drops", "eib pkts",
    ];
    const INDEX_COLUMN: bool = true;

    fn row(&self) -> Vec<String> {
        vec![
            self.arch.clone(),
            self.replications.to_string(),
            format!("{:.2}%", self.delivery.mean * 100.0),
            format!("±{:.2}%", self.delivery.ci95 * 100.0),
            self.drops.iter().sum::<u64>().to_string(),
            self.eib[0].to_string(),
        ]
    }

    /// The cell's `arch` and replications, a delivery and an
    /// availability sample per replication, availabilities in `[0, 1]`
    /// and a window byte count per linecard. `delivery` is a byte ratio
    /// over the measurement window: with the window at 0 it lies in
    /// `[0, 1]`, but a later window can deliver bytes offered before it
    /// opened.
    fn check(&self, cell: &Json) -> Result<bool, String> {
        same("arch", &self.arch, &declared(cell, "arch")?)?;
        let reps = declared(cell, "replications")?;
        same("replications", &self.replications, &reps)?;
        self.delivery.check("delivery", reps, true)?;
        self.latency_s.check("latency_s", reps, false)?;
        self.availability.check("availability", reps, true)?;
        self.availability.unit("availability")?;
        let lcs: u64 = declared(cell, "config.n_lcs")?;
        for bytes in [&self.offered_bytes, &self.delivered_bytes] {
            same("window linecards", &(bytes.len() as u64), &lcs)?;
        }
        let mean = self.delivery.mean;
        if declared::<f64>(cell, "measure_from_s")? == 0.0 && mean > 1.0 {
            return Err(format!("delivery.mean {mean} above 1 with no window"));
        }
        Ok(true)
    }
}

/// Run every replication of one cell and reduce to its record.
fn run_cell(spec: &CampaignSpec, index: usize) -> CampaignRecord {
    let cell = &spec.cells[index];
    let horizon = cell.scenario.horizon_s();
    let n = cell.config.n_lcs;

    let mut delivery = Welford::new();
    let mut latency = Welford::new();
    let mut availability = Welford::new();
    let mut record = CampaignRecord {
        arch: cell.arch.name().to_string(),
        replications: cell.replications as u64,
        offered_bytes: vec![0; n],
        delivered_bytes: vec![0; n],
        ..CampaignRecord::default()
    };

    for rep in 0..cell.replications {
        let sim_seed = derive_seed(
            spec.master_seed,
            cell.seed_group,
            rep as u64,
            Stream::Simulation,
        );
        let scenario: Scenario = match &cell.scenario {
            ScenarioTemplate::Explicit(s) => s.clone(),
            ScenarioTemplate::Sampled { process, horizon_s } => {
                let fault_seed = derive_seed(
                    spec.master_seed,
                    cell.seed_group,
                    rep as u64,
                    Stream::Faults,
                );
                process.sample(n, *horizon_s, &mut SmallRng::seed_from_u64(fault_seed))
            }
        };
        let window = match cell.arch {
            Arch::Dra => scenario.run_windowed(
                &mut DraRouter::simulation(
                    DraConfig {
                        router: cell.config.clone(),
                        ..Default::default()
                    },
                    sim_seed,
                ),
                cell.measure_from_s,
            ),
            Arch::Bdr => scenario.run_windowed(
                &mut BdrRouter::simulation(cell.config.clone(), sim_seed),
                cell.measure_from_s,
            ),
        };
        let metrics = &window.full;

        delivery.push(window.window_byte_delivery_ratio());
        for lc in 0..n {
            record.offered_bytes[lc] += window.window_offered_bytes(lc);
            record.delivered_bytes[lc] += window.window_delivered_bytes(lc);
        }
        for (slot, cause) in DropCause::ALL.iter().enumerate() {
            record.drops[slot] += metrics.total_drops(*cause);
        }
        // Packet-weighted mean latency across the router.
        let (mut lat_sum, mut lat_n) = (0.0, 0u64);
        let mut avail_sum = 0.0;
        for lc in &metrics.lcs {
            lat_sum += lc.latency.mean() * lc.latency.count() as f64;
            lat_n += lc.latency.count();
            avail_sum += lc.availability.average(horizon);
        }
        if lat_n > 0 {
            latency.push(lat_sum / lat_n as f64);
        }
        availability.push(avail_sum / n as f64);
        record.eib[0] += metrics.eib_packets;
        record.eib[1] += metrics.eib_bytes;
        record.eib[2] += metrics.eib_control_packets;
        record.eib[3] += metrics.eib_collisions;
    }
    record.delivery = Stat::from(&delivery);
    record.latency_s = Stat::from(&latency);
    record.availability = Stat::from(&availability);
    record
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CellSpec, ScenarioTemplate};
    use dra_core::scenario::Action;
    use dra_router::bdr::BdrConfig;
    use dra_router::components::ComponentKind;

    fn spec(cells: usize, reps: usize) -> CampaignSpec {
        CampaignSpec {
            name: "unit".into(),
            description: "engine unit-test grid".into(),
            master_seed: 7,
            cells: (0..cells)
                .map(|i| CellSpec {
                    id: format!("dra/cell{i}"),
                    arch: Arch::Dra,
                    config: BdrConfig {
                        n_lcs: 3,
                        load: 0.15,
                        ..BdrConfig::default()
                    },
                    scenario: ScenarioTemplate::Explicit(
                        Scenario::new(1e-3)
                            .at(0.4e-3, Action::FailComponent(0, ComponentKind::Sru)),
                    ),
                    replications: reps,
                    measure_from_s: 0.0,
                    seed_group: i as u64,
                })
                .collect(),
        }
    }

    #[test]
    fn in_memory_run_produces_valid_artifact() {
        let out = run(&spec(2, 2), &RunOptions::default()).unwrap();
        assert_eq!(out.completed, 2);
        assert_eq!(out.remaining, 0);
        let text = out.artifact.unwrap().to_string_pretty();
        let (cells, errors) = validate_artifact(&text).unwrap();
        assert_eq!((cells, errors), (2, 0));
    }

    #[test]
    fn artifact_independent_of_worker_count() {
        let spec = spec(3, 2);
        let one = run(
            &spec,
            &RunOptions {
                workers: 1,
                ..RunOptions::default()
            },
        )
        .unwrap();
        let many = run(
            &spec,
            &RunOptions {
                workers: 4,
                ..RunOptions::default()
            },
        )
        .unwrap();
        assert_eq!(
            one.artifact.unwrap().to_string_pretty(),
            many.artifact.unwrap().to_string_pretty()
        );
    }

    #[test]
    fn progress_heartbeat_does_not_change_artifact() {
        let spec = spec(3, 2);
        let plain = run(&spec, &RunOptions::default()).unwrap();
        let noisy = run(
            &spec,
            &RunOptions {
                progress: true,
                workers: 3,
                ..RunOptions::default()
            },
        )
        .unwrap();
        assert_eq!(
            plain.artifact.unwrap().to_string_pretty(),
            noisy.artifact.unwrap().to_string_pretty()
        );
    }

    #[test]
    fn telemetry_section_embeds_and_validates() {
        let spec = spec(2, 1);
        let out = run(
            &spec,
            &RunOptions {
                telemetry: true,
                ..RunOptions::default()
            },
        )
        .unwrap();
        let text = out.artifact.unwrap().to_string_pretty();
        validate_artifact(&text).unwrap();
        let doc = crate::json::parse(&text).unwrap();
        let t = doc.get("telemetry").expect("telemetry section present");
        assert_eq!(
            t.get("format").and_then(Json::as_str),
            Some("dra-telemetry/v2")
        );
        assert_eq!(t.get("cells_merged").and_then(Json::as_u64), Some(2));
        assert_eq!(t.get("network"), Some(&Json::Null));
        assert!(
            t.get("profile").is_none(),
            "embedded sections carry no profile"
        );
        let arrivals = t
            .get("router")
            .and_then(|r| r.get("counters"))
            .and_then(|c| c.get("router.arrivals"))
            .and_then(Json::as_f64)
            .expect("arrivals counter");
        assert!(arrivals > 0.0, "no arrivals counted");
    }

    #[test]
    fn telemetry_section_independent_of_worker_count() {
        let spec = spec(3, 1);
        let run_with = |workers| {
            run(
                &spec,
                &RunOptions {
                    workers,
                    telemetry: true,
                    ..RunOptions::default()
                },
            )
            .unwrap()
            .artifact
            .unwrap()
            .to_string_pretty()
        };
        assert_eq!(run_with(1), run_with(4));
    }

    #[test]
    fn external_telemetry_leaves_artifact_identical() {
        let spec = spec(2, 1);
        let plain = run(&spec, &RunOptions::default()).unwrap();
        let snap_path =
            std::env::temp_dir().join(format!("dra-telemetry-ext-{}.json", std::process::id()));
        let traced = run(
            &spec,
            &RunOptions {
                telemetry_out: Some(snap_path.clone()),
                ..RunOptions::default()
            },
        )
        .unwrap();
        assert_eq!(
            plain.artifact.unwrap().to_string_pretty(),
            traced.artifact.unwrap().to_string_pretty(),
            "--telemetry-out must not touch the artifact"
        );
        let snap = std::fs::read_to_string(&snap_path).expect("snapshot file written");
        let _ = std::fs::remove_file(&snap_path);
        let doc = crate::json::parse(&snap).unwrap();
        assert_eq!(
            doc.get("format").and_then(Json::as_str),
            Some("dra-telemetry/v2")
        );
        assert_eq!(doc.get("cells_merged").and_then(Json::as_u64), Some(2));
    }

    #[test]
    fn cell_budget_with_telemetry_is_rejected() {
        let err = run(
            &spec(2, 1),
            &RunOptions {
                cell_budget: Some(1),
                telemetry_out: Some(std::env::temp_dir().join("dra-budget-tele.json")),
                ..RunOptions::default()
            },
        )
        .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("cell budget"), "{err}");
    }

    #[test]
    fn windowed_cell_may_deliver_more_than_its_window_offers() {
        // Full-grid fig8 cell 10 measures from the 2 ms warmup; bytes
        // offered before the window opened land inside it, so its
        // windowed delivery ratio is a little above 1 and still right.
        let mut spec = crate::registry::build("fig8", false).unwrap();
        spec.cells = vec![spec.cells.swap_remove(10)];
        assert_eq!(spec.cells[0].id, "dra/load30/x1");
        let out = run(&spec, &RunOptions::default()).unwrap();
        let mean = out
            .artifact
            .unwrap()
            .get("cells")
            .and_then(Json::as_arr)
            .unwrap()[0]
            .get("delivery")
            .and_then(|d| d.get("mean"))
            .and_then(Json::as_f64)
            .unwrap();
        assert!(mean > 1.0, "delivery.mean {mean}");
        assert_eq!(validate_artifact(&out.artifact_text), Ok((1, 0)));
    }

    #[test]
    fn delivery_above_one_is_rejected_without_a_window() {
        let text = run(&spec(1, 1), &RunOptions::default())
            .unwrap()
            .artifact_text;
        // A well-formed statistic at 1.5 throughout, so only the
        // window rule can reject it.
        let at = text.find("\"delivery\": {").unwrap();
        let end = at + text[at..].find('}').unwrap() + 1;
        let stat = r#""delivery": {"n": 1, "mean": 1.5, "ci95": 0, "min": 1.5, "max": 1.5}"#;
        let edited = format!("{}{stat}{}", &text[..at], &text[end..]);
        let err = validate_artifact(&edited).unwrap_err();
        assert!(err.contains("delivery.mean 1.5 above 1"), "{err}");
    }

    #[test]
    fn validate_artifact_rejects_garbage() {
        assert!(validate_artifact("not json").is_err());
        assert!(validate_artifact("{\"format\":\"something-else\"}").is_err());
    }

    #[test]
    fn validate_artifact_recomputes_the_digest() {
        let text = run(&spec(2, 1), &RunOptions::default())
            .unwrap()
            .artifact_text;
        assert!(validate_artifact(&text).is_ok());
        // Hand-edit one manifest field: the stamped digest no longer
        // matches the embedded spec, so the artifact is rejected.
        let edited = text.replacen("\"replications\": 1", "\"replications\": 2", 1);
        assert_ne!(edited, text);
        let err = validate_artifact(&edited).unwrap_err();
        assert!(err.contains("does not match"), "{err}");
    }
}
