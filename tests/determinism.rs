//! Cross-run reproducibility of the full stack: identical seeds must
//! give bit-identical results through traffic generation, sampled
//! fault timelines, CSMA/CD backoff, fabric scheduling, and Monte Carlo —
//! the property every comparison experiment in EXPERIMENTS.md rests on.

use dra::campaign::engine::{run, RunOptions};
use dra::campaign::registry;
use dra::core::montecarlo::{inflated_rates, run_dra_mc, McConfig, McMode, RepairDist};
use dra::core::scenario::{FaultProcess, Scenario};
use dra::core::sim::{DraConfig, DraRouter};
use dra::router::bdr::{BdrConfig, BdrRouter};
use dra::router::faults::{FaultGranularity, FaultInjector};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// A fault timeline at rates inflated 1000× and compressed so several
/// failures and repairs land inside a 10 ms run on 5 cards, sampled
/// from its own stream of `seed`. Replayed mid-run, its actions
/// interleave with the simulation RNG's PIU coins, CSMA/CD backoff and
/// arbitration draws.
fn stochastic_faults(granularity: FaultGranularity, seed: u64) -> Scenario {
    let process = FaultProcess {
        injector: FaultInjector {
            rates: inflated_rates(1000.0),
            repair_time_h: 3.0,
            granularity,
        },
        delay_scale: 1e-3 / 50.0,
        repair: true,
    };
    let scenario = process.sample(5, 10e-3, &mut SmallRng::seed_from_u64(seed));
    assert!(!scenario.is_empty(), "no faults sampled for seed {seed}");
    scenario
}

fn config() -> BdrConfig {
    BdrConfig {
        n_lcs: 5,
        load: 0.3,
        ..BdrConfig::default()
    }
}

fn fingerprint_bdr(seed: u64) -> (u64, u64, u64, u64) {
    let mut sim = BdrRouter::simulation(config(), seed);
    stochastic_faults(FaultGranularity::WholeLc, seed).run(&mut sim);
    let m = &sim.model().metrics;
    (
        m.total_offered_bytes(),
        m.total_delivered_bytes(),
        m.lcs.iter().map(|l| l.total_drops()).sum(),
        sim.events_processed(),
    )
}

fn fingerprint_dra(seed: u64) -> (u64, u64, u64, u64, u64) {
    let cfg = DraConfig {
        router: config(),
        ..Default::default()
    };
    let mut sim = DraRouter::simulation(cfg, seed);
    stochastic_faults(FaultGranularity::PerComponent, seed).run(&mut sim);
    let m = &sim.model().metrics;
    (
        m.total_offered_bytes(),
        m.total_delivered_bytes(),
        m.eib_packets,
        m.eib_collisions,
        sim.events_processed(),
    )
}

#[test]
fn bdr_with_stochastic_faults_is_reproducible() {
    assert_eq!(fingerprint_bdr(123), fingerprint_bdr(123));
    assert_ne!(fingerprint_bdr(123), fingerprint_bdr(124));
}

#[test]
fn dra_with_stochastic_faults_is_reproducible() {
    assert_eq!(fingerprint_dra(9), fingerprint_dra(9));
    assert_ne!(fingerprint_dra(9), fingerprint_dra(10));
}

/// The campaign engine's core contract: the artifact is a pure
/// function of the spec, independent of the worker count. Sampled
/// fault schedules, windowed measurement, and the JSON render all sit
/// on this path.
#[test]
fn campaign_artifact_is_byte_identical_across_worker_counts() {
    let spec = registry::build("faceoff", true).expect("built-in spec");
    let render = |workers: usize| {
        let outcome = run(
            &spec,
            &RunOptions {
                workers,
                ..RunOptions::default()
            },
        )
        .expect("campaign runs");
        outcome
            .artifact
            .expect("campaign completed")
            .to_string_pretty()
    };
    let serial = render(1);
    let parallel = render(4);
    assert_eq!(serial, parallel, "artifact depends on worker count");
    // And reruns reproduce exactly (no hidden global state).
    assert_eq!(serial, render(1));
}

#[test]
fn monte_carlo_is_reproducible_across_modes() {
    let cfg = McConfig {
        n: 5,
        m: 3,
        rates: inflated_rates(1000.0),
        replications: 2_000,
        seed: 31,
    };
    for mode in [
        McMode::Reliability { horizon_h: 40.0 },
        McMode::Availability {
            horizon_h: 500.0,
            mu: 1.0 / 3.0,
            repair: RepairDist::Exponential,
        },
        McMode::Availability {
            horizon_h: 500.0,
            mu: 1.0 / 3.0,
            repair: RepairDist::Deterministic,
        },
    ] {
        let a = run_dra_mc(&cfg, mode);
        let b = run_dra_mc(&cfg, mode);
        assert_eq!(a.mean, b.mean);
        assert_eq!(a.ci_half, b.ci_half);
    }
}
