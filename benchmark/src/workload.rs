//! The four sweep workloads, their per-sweep seeds, and the calls into
//! the sweep engines of `dra-campaign` and `dra-topo`.

use crate::metrics::Checks;
use dra_campaign::engine::RunOptions;
use dra_campaign::seed::{derive_seed, splitmix64, Stream};
use dra_campaign::spec::{CampaignSpec, CellSpec, ScenarioTemplate};
use dra_core::scenario::Scenario;
use dra_topo::{build_network, TopoRunOptions, TopoSpec};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Which sweep engine a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// `dra_campaign::run` over a single-chassis campaign grid.
    Campaign,
    /// `dra_topo::run` over a network-of-routers grid.
    Topo,
}

/// One benchmark workload: a fixed grid run through one engine at fixed
/// thread counts (2 = `nproc` on the reference host).
#[derive(Debug)]
pub struct Workload {
    /// Workload name (the `--workload` argument).
    pub name: &'static str,
    /// Engine family.
    pub family: Family,
    /// Registry specs of one sweep, each with its committed artifact.
    pub specs: &'static [(&'static str, &'static str)],
    /// Engine worker threads.
    pub workers: usize,
    /// Threads per network simulation (topo only; 1 = serial kernel).
    pub sim_threads: usize,
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "faceoff",
        family: Family::Campaign,
        specs: &[("faceoff", "results/faceoff.json")],
        workers: 2,
        sim_threads: 1,
    },
    Workload {
        name: "net_scale",
        family: Family::Topo,
        specs: &[("scale2", "results/topo_scale2.json")],
        workers: 2,
        sim_threads: 1,
    },
    Workload {
        name: "net_mid",
        family: Family::Topo,
        specs: &[
            ("resilience", "results/topo_resilience.json"),
            ("scale", "results/topo_scale.json"),
        ],
        workers: 1,
        sim_threads: 1,
    },
    Workload {
        name: "net_pdes",
        family: Family::Topo,
        specs: &[
            ("resilience", "results/topo_resilience.json"),
            ("scale", "results/topo_scale.json"),
        ],
        workers: 1,
        sim_threads: 2,
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Master seed of sweep `sweep` of a run with `--seed run_seed`.
///
/// Seed 0's first sweep keeps the registry seed, so its artifact is the
/// committed one byte for byte; every other sweep mixes the registry
/// seed, the run seed and the sweep index through SplitMix64 steps.
pub fn sweep_seed(registry_seed: u64, run_seed: u64, sweep: u64) -> u64 {
    if run_seed == 0 && sweep == 0 {
        return registry_seed;
    }
    let mut state = registry_seed;
    let mut mixed = splitmix64(&mut state);
    for word in [run_seed, sweep] {
        state ^= mixed ^ word.wrapping_mul(0xD6E8_FEB8_6659_FD93);
        mixed = splitmix64(&mut state);
    }
    mixed
}

/// FNV-1a 64 of an artifact's bytes, as 16 hex digits.
pub fn fnv64(text: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// A sweep spec of either engine.
#[derive(Debug, Clone)]
pub enum Spec {
    /// Campaign grid.
    Campaign(CampaignSpec),
    /// Topo grid.
    Topo(TopoSpec),
}

/// What one engine call returned.
pub struct EngineRun {
    /// The rendered artifact.
    pub text: String,
    /// Cells that panicked (recorded as error cells).
    pub failed_cells: usize,
}

impl EngineRun {
    /// The per-artifact checks: no error cells, the engine's validator
    /// (`valid`) passed, and the bytes equal the committed artifact at
    /// `pinned`, when given (read only).
    pub fn check(
        &self,
        label: &str,
        valid: Result<(usize, usize), String>,
        pinned: Option<&Path>,
        checks: &mut Checks,
    ) {
        checks.check(self.failed_cells == 0, || {
            format!("{label}: {} error cells", self.failed_cells)
        });
        checks.check(matches!(valid, Ok((_, 0))), || {
            format!("{label}: validate_artifact: {valid:?}")
        });
        if let Some(path) = pinned {
            let want = std::fs::read_to_string(path).unwrap_or_default();
            checks.check(self.text == want, || {
                format!("{label}: differs from {}", path.display())
            });
        }
    }
}

impl Spec {
    /// The registry spec `name` with its master seed replaced by
    /// `sweep_seed(registry, run_seed, sweep)`.
    pub fn build(family: Family, name: &str, run_seed: u64, sweep: u64) -> Spec {
        match family {
            Family::Campaign => {
                let mut s = dra_campaign::registry::build(name, false)
                    .unwrap_or_else(|| panic!("no campaign spec {name}"));
                s.master_seed = sweep_seed(s.master_seed, run_seed, sweep);
                Spec::Campaign(s)
            }
            Family::Topo => {
                let mut s = dra_topo::registry::spec_by_name(name, false)
                    .unwrap_or_else(|| panic!("no topo spec {name}"));
                s.master_seed = sweep_seed(s.master_seed, run_seed, sweep);
                Spec::Topo(s)
            }
        }
    }

    /// Registry name of the spec.
    pub fn name(&self) -> &str {
        match self {
            Spec::Campaign(s) => &s.name,
            Spec::Topo(s) => &s.name,
        }
    }

    /// Simulated seconds of one sweep: Σ replications × horizon.
    pub fn sim_seconds(&self) -> f64 {
        match self {
            Spec::Campaign(s) => s
                .cells
                .iter()
                .map(|c| c.replications as f64 * c.scenario.horizon_s())
                .sum(),
            Spec::Topo(s) => s
                .cells
                .iter()
                .map(|c| c.replications as f64 * c.horizon_s)
                .sum(),
        }
    }

    /// One sweep-engine `run` call, artifact rendered in memory.
    pub fn run_engine(&self, workers: usize, sim_threads: usize) -> Result<EngineRun, String> {
        match self {
            Spec::Campaign(s) => {
                let opts = RunOptions {
                    workers,
                    ..RunOptions::default()
                };
                let out = dra_campaign::run(s, &opts).map_err(|e| e.to_string())?;
                let artifact = out.artifact.ok_or("campaign left cells unfinished")?;
                Ok(EngineRun {
                    text: artifact.to_string_pretty(),
                    failed_cells: out.failed,
                })
            }
            Spec::Topo(s) => {
                let opts = TopoRunOptions {
                    workers: Some(workers),
                    sim_threads: Some(sim_threads),
                    quiet: true,
                    ..TopoRunOptions::default()
                };
                let out = dra_topo::run(s, &opts).map_err(|e| e.to_string())?;
                Ok(EngineRun {
                    text: out.artifact_text,
                    failed_cells: out.failed,
                })
            }
        }
    }

    /// The engine's own artifact validator; `(cells, error cells)`.
    pub fn validate(&self, text: &str) -> Result<(usize, usize), String> {
        match self {
            Spec::Campaign(_) => dra_campaign::engine::validate_artifact(text),
            Spec::Topo(_) => dra_topo::engine::validate_artifact(text),
        }
    }

    /// Construct every replication of the sweep once on this thread,
    /// dropping each before the next; returns Σ construction time. For
    /// topo that is `build_network`; for campaign cells it is the fault
    /// timeline sample plus the router simulation constructor.
    pub fn construct_all(&self) -> f64 {
        let mut total = 0.0;
        match self {
            Spec::Campaign(s) => {
                for cell in &s.cells {
                    for rep in 0..cell.replications as u64 {
                        let t = Instant::now();
                        let scenario = sample_scenario(s.master_seed, cell, rep);
                        let router = build_router(cell, router_seed(s.master_seed, cell, rep));
                        total += t.elapsed().as_secs_f64();
                        drop(black_box((scenario, router)));
                    }
                }
            }
            Spec::Topo(s) => {
                for cell in &s.cells {
                    for rep in 0..cell.replications {
                        let t = Instant::now();
                        let net = build_network(cell, s.master_seed, rep);
                        total += t.elapsed().as_secs_f64();
                        drop(black_box(net));
                    }
                }
            }
        }
        total
    }
}

/// The simulation seed of a campaign replication (as the engine
/// derives it).
pub fn router_seed(master: u64, cell: &CellSpec, rep: u64) -> u64 {
    derive_seed(master, cell.seed_group, rep, Stream::Simulation)
}

/// The fault timeline of a campaign replication (as the engine
/// derives it).
pub fn sample_scenario(master: u64, cell: &CellSpec, rep: u64) -> Scenario {
    match &cell.scenario {
        ScenarioTemplate::Explicit(s) => s.clone(),
        ScenarioTemplate::Sampled { process, horizon_s } => {
            let fault_seed = derive_seed(master, cell.seed_group, rep, Stream::Faults);
            process.sample(
                cell.config.n_lcs,
                *horizon_s,
                &mut SmallRng::seed_from_u64(fault_seed),
            )
        }
    }
}

/// A constructed single-router simulation of either architecture.
// Unboxed on purpose: a box would add an allocation to the timed
// `router.build` span that the engine's own construction does not make.
#[allow(clippy::large_enum_variant)]
pub enum RouterSim {
    /// BDR baseline.
    Bdr(dra_des::Simulation<dra_router::bdr::BdrRouter>),
    /// DRA.
    Dra(dra_des::Simulation<dra_core::sim::DraRouter>),
}

/// `{Bdr,Dra}Router::simulation` with the engine's configuration.
pub fn build_router(cell: &CellSpec, seed: u64) -> RouterSim {
    match cell.arch {
        dra_campaign::Arch::Bdr => RouterSim::Bdr(dra_router::bdr::BdrRouter::simulation(
            cell.config.clone(),
            seed,
        )),
        dra_campaign::Arch::Dra => RouterSim::Dra(dra_core::sim::DraRouter::simulation(
            dra_core::sim::DraConfig {
                router: cell.config.clone(),
                ..Default::default()
            },
            seed,
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn seed_zero_keeps_the_registry_seeds() {
        for w in &WORKLOADS {
            for &(name, _) in w.specs {
                let registry = match Spec::build(w.family, name, 0, 0) {
                    Spec::Campaign(s) => (
                        s.master_seed,
                        dra_campaign::registry::build(name, false)
                            .unwrap()
                            .master_seed,
                    ),
                    Spec::Topo(s) => (
                        s.master_seed,
                        dra_topo::registry::spec_by_name(name, false)
                            .unwrap()
                            .master_seed,
                    ),
                };
                assert_eq!(registry.0, registry.1, "{} / {name}", w.name);
            }
        }
    }

    #[test]
    fn derived_seeds_are_distinct() {
        let registry = 0xD8A_70B0;
        let mut seen = HashSet::new();
        for run in 0..64 {
            for sweep in 0..16 {
                assert!(
                    seen.insert(sweep_seed(registry, run, sweep)),
                    "collision at run {run} sweep {sweep}"
                );
            }
        }
        // Swapped coordinates do not collide, and other registries
        // give other streams.
        assert_ne!(sweep_seed(registry, 3, 5), sweep_seed(registry, 5, 3));
        assert_ne!(sweep_seed(registry, 1, 0), sweep_seed(2026, 1, 0));
    }

    #[test]
    fn workloads_name_committed_artifacts() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
        for w in &WORKLOADS {
            assert!(find(w.name).is_some());
            for &(_, file) in w.specs {
                assert!(
                    std::path::Path::new(root).join(file).is_file(),
                    "{file} missing"
                );
            }
        }
    }
}
