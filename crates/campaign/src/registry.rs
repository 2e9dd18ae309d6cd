//! Built-in campaign specs.
//!
//! Each entry is a constructor, not data: specs embed full router
//! configs and scenario timelines, so they are built on demand (with
//! the `--quick` CI reduction applied at construction time).

use crate::spec::{Arch, CampaignSpec, CellSpec, ScenarioTemplate};
use dra_core::montecarlo::inflated_rates;
use dra_core::scenario::{Action, FaultProcess, Scenario};
use dra_router::bdr::BdrConfig;
use dra_router::components::ComponentKind;
use dra_router::faults::{FaultGranularity, FaultInjector};

/// Names [`build`] accepts.
pub const NAMES: [&str; 2] = ["faceoff", "fig8"];

/// Build a built-in spec by name. `quick` shrinks the grid for CI.
pub fn build(name: &str, quick: bool) -> Option<CampaignSpec> {
    match name {
        "faceoff" => Some(faceoff(quick)),
        "fig8" => Some(fig8(quick)),
        _ => None,
    }
}

/// The faceoff grid axes, exposed so refactored callers (the
/// fault-injection example) can label cells without re-deriving them.
pub fn faceoff_loads(quick: bool) -> &'static [f64] {
    if quick {
        &[0.25]
    } else {
        &[0.15, 0.3, 0.5]
    }
}

/// BDR vs DRA under sampled fault schedules.
///
/// Both architectures replay the *identical* sampled timelines (same
/// `seed_group` per load), the apples-to-apples contrast the live
/// `FaultInjector` hook could only approximate statistically. Rates
/// are inflated x1000 and time compressed so failures actually land
/// inside a packet-simulation horizon.
fn faceoff(quick: bool) -> CampaignSpec {
    let loads = faceoff_loads(quick);
    let replications = if quick { 2 } else { 4 };
    let horizon_s = if quick { 10e-3 } else { 40e-3 };
    let process = FaultProcess {
        injector: {
            let mut inj = FaultInjector::new(3.0, FaultGranularity::PerComponent);
            inj.rates = inflated_rates(1000.0);
            inj
        },
        // 50 inflated-rate hours of fault process per 4 ms simulated.
        delay_scale: 4e-3 / 50.0,
        repair: true,
    };
    let mut cells = Vec::new();
    for (group, &load) in loads.iter().enumerate() {
        for arch in [Arch::Bdr, Arch::Dra] {
            cells.push(CellSpec {
                id: format!("{}/load{:02}", arch.name(), (load * 100.0).round() as u32),
                arch,
                config: BdrConfig {
                    n_lcs: 6,
                    load,
                    ..BdrConfig::default()
                },
                scenario: ScenarioTemplate::Sampled {
                    process: process.clone(),
                    horizon_s,
                },
                replications,
                measure_from_s: 0.0,
                seed_group: group as u64,
            });
        }
    }
    CampaignSpec {
        name: "faceoff".into(),
        description: "BDR vs DRA delivery under identical randomized \
                      fault/repair schedules (rates x1000, time-compressed)"
            .into(),
        master_seed: 2026,
        cells,
    }
}

/// The fig8 grid axes `(loads, x_faulty values)`.
pub fn fig8_grid(quick: bool) -> (&'static [f64], &'static [usize]) {
    if quick {
        (&[0.15, 0.7], &[1, 5])
    } else {
        (&[0.15, 0.3, 0.5, 0.7], &[1, 2, 3, 4, 5])
    }
}

/// Warmup before the SRU failures (and the measurement-window start).
pub const FIG8_WARMUP_S: f64 = 2e-3;
/// Simulated horizon of each fig8 cell.
pub const FIG8_HORIZON_S: f64 = 8e-3;
/// Linecard count of the fig8 grid.
pub const FIG8_N_LCS: usize = 6;

/// The deterministic grid behind `dra repro validate` part 2: fail the
/// SRUs of the first `x` of 6 cards at warmup, measure the
/// post-failure window. Cells come in (DRA, BDR) pairs per grid point
/// sharing a `seed_group`, so both architectures see identical
/// offered traffic.
fn fig8(quick: bool) -> CampaignSpec {
    let (loads, xs) = fig8_grid(quick);
    let mut cells = Vec::new();
    for (li, &load) in loads.iter().enumerate() {
        for (xi, &x) in xs.iter().enumerate() {
            let mut scenario = Scenario::new(FIG8_HORIZON_S);
            for lc in 0..x as u16 {
                scenario =
                    scenario.at(FIG8_WARMUP_S, Action::FailComponent(lc, ComponentKind::Sru));
            }
            for arch in [Arch::Dra, Arch::Bdr] {
                cells.push(CellSpec {
                    id: format!(
                        "{}/load{:02}/x{x}",
                        arch.name(),
                        (load * 100.0).round() as u32
                    ),
                    arch,
                    config: BdrConfig {
                        n_lcs: FIG8_N_LCS,
                        load,
                        ..BdrConfig::default()
                    },
                    scenario: ScenarioTemplate::Explicit(scenario.clone()),
                    replications: 1,
                    measure_from_s: FIG8_WARMUP_S,
                    seed_group: (li * xs.len() + xi) as u64,
                });
            }
        }
    }
    CampaignSpec {
        name: "fig8".into(),
        description: "faulty-LC delivery fraction vs the Figure-8 \
                      closed form: SRU failures at warmup, windowed \
                      measurement (N=6)"
            .into(),
        master_seed: 0xF18,
        cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::check_spec;

    #[test]
    fn every_entry_builds_and_validates() {
        for name in NAMES {
            for quick in [false, true] {
                let spec = build(name, quick).expect(name);
                check_spec(&spec).unwrap();
                assert_eq!(spec.name, name);
                assert!(!spec.cells.is_empty());
            }
        }
        assert!(build("nope", false).is_none());
    }

    #[test]
    fn quick_grids_are_smaller() {
        for name in NAMES {
            let full = build(name, false).unwrap();
            let quick = build(name, true).unwrap();
            assert!(quick.cells.len() < full.cells.len(), "{name}");
        }
    }

    #[test]
    fn faceoff_pairs_share_seed_groups_across_archs() {
        let spec = build("faceoff", true).unwrap();
        for pair in spec.cells.chunks(2) {
            assert_eq!(pair[0].seed_group, pair[1].seed_group);
            assert_ne!(pair[0].arch, pair[1].arch);
        }
    }

    #[test]
    fn fig8_matches_validate_grid_shape() {
        let (loads, xs) = fig8_grid(false);
        let spec = build("fig8", false).unwrap();
        assert_eq!(spec.cells.len(), loads.len() * xs.len() * 2);
        // Pairs are (DRA, BDR) in grid order.
        assert!(spec.cells[0].id.starts_with("dra/"));
        assert!(spec.cells[1].id.starts_with("bdr/"));
    }
}
