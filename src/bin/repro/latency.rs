//! E7 — the latency price of coverage (an axis §5.3 never measured:
//! the paper analyzes bandwidth under failures, not delay).
//!
//! For each load, one card's LFE, another's SRU, and a third's
//! (egress) SRU are failed simultaneously, so the four coverage paths
//! run side by side in one router; the table reports per-path mean
//! latency of delivered packets.

use dra::campaign::report::print_table;
use dra::core::scenario::{Action, Scenario};
use dra::core::sim::{DraConfig, DraRouter, PathKind};
use dra::router::bdr::BdrConfig;
use dra::router::components::ComponentKind;

fn simulate(load: f64) -> Vec<(PathKind, u64, f64, f64)> {
    let mut sim = DraRouter::simulation(
        DraConfig {
            router: BdrConfig {
                n_lcs: 6,
                load,
                ..BdrConfig::default()
            },
            ..Default::default()
        },
        0xE7,
    );
    // Three distinct failure modes at once.
    Scenario::new(6e-3)
        .at(1e-3, Action::FailComponent(0, ComponentKind::Lfe))
        .at(1e-3, Action::FailComponent(1, ComponentKind::Sru))
        .at(1e-3, Action::FailComponent(2, ComponentKind::Sru))
        .run(&mut sim);
    PathKind::ALL
        .iter()
        .map(|&p| {
            let w = sim.model().latency_by_path(p);
            let p95 = sim.model().latency_hist_by_path(p).quantile(0.95);
            (p, w.count(), w.mean(), p95)
        })
        .collect()
}

/// Print the per-path latency tables (`quick`: two loads).
pub fn run(quick: bool) {
    let loads: &[f64] = if quick {
        &[0.15, 0.5]
    } else {
        &[0.05, 0.15, 0.3, 0.5]
    };
    println!("E7 — per-path delivered-packet latency (N=6; LFE@LC0, SRU@LC1, SRU@LC2 failed)");
    for &load in loads {
        let rows: Vec<Vec<String>> = simulate(load)
            .into_iter()
            .map(|(p, n, mean, p95)| {
                let fmt = |v: f64| {
                    if n > 0 && v.is_finite() {
                        format!("{:.2} us", v * 1e6)
                    } else {
                        "-".to_string()
                    }
                };
                vec![p.name().to_string(), n.to_string(), fmt(mean), fmt(p95)]
            })
            .collect();
        print_table(
            &format!("load = {:.0}%", load * 100.0),
            &["path", "packets", "mean latency", "p95"],
            &rows,
        );
    }
    println!(
        "\nReading: EIB data-line detours add transfer + helper-pipeline time\n\
         (tens of microseconds at the promised rates); remote lookups add two\n\
         control packets plus CSMA/CD queueing, which grows with load. The\n\
         paper's bandwidth-only degradation story understates the user-visible\n\
         cost of coverage at high load."
    );
}
