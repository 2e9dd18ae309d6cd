//! E5 integration: the packet-level simulators against the paper's
//! closed-form degradation analysis, and DRA against BDR under
//! identical conditions.
//!
//! Debug-build friendly: short horizons, a handful of scenarios; the
//! full sweep is `dra repro validate`.

use dra::core::analysis::degradation::{b_faulty_fraction, DegradationParams};
use dra::core::sim::{DraConfig, DraRouter};
use dra::router::bdr::{BdrConfig, BdrRouter};
use dra::router::components::ComponentKind;
use dra::router::metrics::RouterMetrics;

fn faulty_delivery_fraction(load: f64, x_faulty: usize, seed: u64) -> f64 {
    let warmup = 1e-3;
    let horizon = 4e-3;
    let mut sim = DraRouter::simulation(
        DraConfig {
            router: BdrConfig {
                n_lcs: 6,
                load,
                ..BdrConfig::default()
            },
            ..Default::default()
        },
        seed,
    );
    sim.run_until(warmup);
    let now = sim.now();
    for lc in 0..x_faulty as u16 {
        sim.model_mut()
            .fail_component_now(lc, ComponentKind::Sru, now);
    }
    let snap = |m: &RouterMetrics| {
        let off: u64 = (0..x_faulty).map(|i| m.lcs[i].offered_bytes).sum();
        let del: u64 = (0..x_faulty).map(|i| m.lcs[i].delivered_bytes).sum();
        (off, del)
    };
    let (o0, d0) = snap(&sim.model().metrics);
    sim.run_until(horizon);
    let (o1, d1) = snap(&sim.model().metrics);
    (d1 - d0) as f64 / (o1 - o0).max(1) as f64
}

#[test]
fn simulation_tracks_figure8_at_low_load() {
    // L = 15%, X = 2: analytic says 100%.
    let measured = faulty_delivery_fraction(0.15, 2, 11);
    assert!(measured > 0.97, "measured {measured}");
}

#[test]
fn simulation_tracks_figure8_at_the_binding_point() {
    // L = 70%, X = 5: analytic says 3/35 = 8.57%.
    let analytic = b_faulty_fraction(&DegradationParams::paper(0.7), 5);
    let measured = faulty_delivery_fraction(0.7, 5, 13);
    assert!(
        (measured - analytic).abs() < 0.03,
        "measured {measured} vs analytic {analytic}"
    );
}

#[test]
fn simulation_degrades_between_the_extremes() {
    // L = 50%, X = 4: analytic 50%.
    let analytic = b_faulty_fraction(&DegradationParams::paper(0.5), 4);
    let measured = faulty_delivery_fraction(0.5, 4, 17);
    assert!(
        (measured - analytic).abs() < 0.10,
        "measured {measured} vs analytic {analytic}"
    );
}

#[test]
fn bdr_delivers_nothing_on_faulty_cards() {
    let mut sim = BdrRouter::simulation(
        BdrConfig {
            n_lcs: 6,
            load: 0.3,
            ..BdrConfig::default()
        },
        19,
    );
    sim.run_until(1e-3);
    let now = sim.now();
    sim.model_mut()
        .fail_component_now(0, ComponentKind::Sru, now);
    let before = sim.model().metrics.lcs[0].delivered_packets;
    sim.run_until(3e-3);
    let after = sim.model().metrics.lcs[0].delivered_packets;
    // Anything still inside the pipeline at failure time may drain;
    // no *new* arrivals are served.
    assert!(
        after - before < 5,
        "BDR served {} packets on a dead card",
        after - before
    );
}

#[test]
fn dra_and_bdr_see_identical_traffic_with_the_same_seed() {
    // The comparison experiments rely on this: same seed, same offered
    // byte counts at every card — even when one architecture consumes
    // extra randomness for coverage (traffic rides dedicated per-LC
    // RNG streams).
    let seed = 23;
    let horizon = 3e-3;
    let base = BdrConfig {
        n_lcs: 4,
        load: 0.25,
        ..BdrConfig::default()
    };
    let mut bdr = BdrRouter::simulation(base.clone(), seed);
    bdr.run_until(1e-3);
    let now = bdr.now();
    bdr.model_mut()
        .fail_component_now(0, ComponentKind::Sru, now);
    bdr.run_until(horizon);

    let mut dra = DraRouter::simulation(
        DraConfig {
            router: base,
            ..Default::default()
        },
        seed,
    );
    dra.run_until(1e-3);
    let now = dra.now();
    dra.model_mut()
        .fail_component_now(0, ComponentKind::Sru, now);
    dra.run_until(horizon);

    for lc in 0..4 {
        assert_eq!(
            bdr.model().metrics.lcs[lc].offered_packets,
            dra.model().metrics.lcs[lc].offered_packets,
            "offered packets diverge at LC{lc}"
        );
        assert_eq!(
            bdr.model().metrics.lcs[lc].offered_bytes,
            dra.model().metrics.lcs[lc].offered_bytes,
            "offered bytes diverge at LC{lc}"
        );
    }
}

#[test]
fn healthy_dra_adds_no_overhead_vs_bdr() {
    let seed = 29;
    let horizon = 2e-3;
    let base = BdrConfig {
        n_lcs: 4,
        load: 0.3,
        ..BdrConfig::default()
    };
    let mut bdr = BdrRouter::simulation(base.clone(), seed);
    bdr.run_until(horizon);
    let mut dra = DraRouter::simulation(
        DraConfig {
            router: base,
            ..Default::default()
        },
        seed,
    );
    dra.run_until(horizon);
    let rb = bdr.model().metrics.byte_delivery_ratio();
    let rd = dra.model().metrics.byte_delivery_ratio();
    assert!((rb - rd).abs() < 0.01, "BDR {rb} vs DRA {rd}");
    assert_eq!(dra.model().metrics.eib_packets, 0);
}
