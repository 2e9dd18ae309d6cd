//! E5 — validation the paper never had:
//!
//! 1. **Monte Carlo vs Markov** on inflated failure rates (the paper's
//!    rates give probabilities near 1e−9, unreachable by sampling;
//!    inflating all rates by the same factor preserves the model
//!    structure and every rate ratio).
//! 2. **Packet-level simulation vs the Figure-8 analysis**: fail the
//!    SRUs of `X_faulty` linecards in the DRA simulator and compare
//!    the measured delivery fraction of those cards' ingress traffic
//!    against the closed-form `B_faulty` prediction; run the same
//!    scenario on the BDR baseline for contrast.
//!
//! Run with `--release` (the packet simulations move millions of
//! events); add `--quick` for a reduced sweep.

use dra::campaign::engine::CampaignRecord;
use dra::campaign::report::print_table;
use dra::campaign::sweep::records;
use dra::campaign::{registry, CellSpec, RunOptions};
use dra::core::analysis::degradation::{b_faulty_fraction, DegradationParams};
use dra::core::analysis::reliability::{dra_model, reliability_curve, DraParams, TprimeSemantics};
use dra::core::montecarlo::{inflated_rates, run_bdr_mc, run_dra_mc, McConfig, McMode};
use dra::core::scenario::{Action, Scenario};
use dra::core::sim::{DraConfig, DraRouter};
use dra::router::bdr::BdrConfig;
use dra::router::components::ComponentKind;

fn validate_markov_vs_mc(quick: bool) {
    println!("\n#### Part 1: Monte Carlo vs Markov (rates inflated x1000) ####");
    let reps = if quick { 5_000 } else { 40_000 };
    let factor = 1000.0;
    let rates = inflated_rates(factor);

    let mut rows = Vec::new();
    for &(n, m) in &[(3usize, 2usize), (5, 3), (9, 4)] {
        for &horizon in &[20.0, 40.0, 60.0] {
            let cfg = McConfig {
                n,
                m,
                rates,
                replications: reps,
                seed: 0xF16 + n as u64 * 100 + m as u64,
            };
            let mc = run_dra_mc(&cfg, McMode::Reliability { horizon_h: horizon });
            let params = DraParams {
                rates,
                tprime: TprimeSemantics::Strict,
                ..DraParams::new(n, m)
            };
            let model = dra_model(&params);
            let markov = reliability_curve(&model.chain, model.start, model.failed, &[horizon])[0];
            let agree = (mc.mean - markov).abs() <= 3.0 * mc.ci_half.max(0.004);
            rows.push(vec![
                format!("N={n} M={m}"),
                format!("{horizon:.0}"),
                format!("{markov:.4}"),
                format!("{:.4} ± {:.4}", mc.mean, mc.ci_half),
                if agree {
                    "OK".into()
                } else {
                    "MISMATCH".into()
                },
            ]);
        }
    }
    print_table(
        "DRA reliability: Markov (Strict T') vs Monte Carlo",
        &[
            "config",
            "t (x1000h eq.)",
            "Markov",
            "MC (95% CI)",
            "verdict",
        ],
        &rows,
    );

    // BDR closed form as a sanity row.
    let cfg = McConfig {
        n: 3,
        m: 2,
        rates,
        replications: reps,
        seed: 0xBD12,
    };
    let mc = run_bdr_mc(&cfg, McMode::Reliability { horizon_h: 40.0 });
    let closed = (-rates.lc * 40.0_f64).exp();
    println!(
        "\nBDR closed form e^(-lambda t) = {closed:.4}; MC = {:.4} ± {:.4}",
        mc.mean, mc.ci_half
    );
}

/// Ingress delivery fraction of the first `x` (faulty) linecards over
/// the post-failure window, read from a campaign cell's per-LC window
/// counters.
fn faulty_fraction(record: &CampaignRecord, x: usize) -> f64 {
    let offered: u64 = record.offered_bytes[..x].iter().sum();
    let delivered: u64 = record.delivered_bytes[..x].iter().sum();
    if offered == 0 {
        1.0
    } else {
        delivered as f64 / offered as f64
    }
}

fn validate_fig8(quick: bool) {
    println!("\n#### Part 2: packet simulation vs the Figure-8 analysis ####");
    let (loads, xs) = registry::fig8_grid(quick);
    let spec = registry::build("fig8", quick).expect("built-in fig8 spec");
    let outcome = dra::campaign::run(&spec, &RunOptions::default()).expect("fig8 campaign runs");
    let artifact = outcome.artifact.expect("campaign completed");
    let cells: Vec<CampaignRecord> = records::<CellSpec>(&artifact)
        .expect("a validated artifact")
        .into_iter()
        .map(|c| c.record)
        .collect();

    let mut rows = Vec::new();
    for (li, &load) in loads.iter().enumerate() {
        for (xi, &x) in xs.iter().enumerate() {
            // Cells come in (DRA, BDR) pairs in grid order.
            let base = (li * xs.len() + xi) * 2;
            let analytic = 100.0 * b_faulty_fraction(&DegradationParams::paper(load), x);
            let sim_dra = 100.0 * faulty_fraction(&cells[base], x);
            let sim_bdr = 100.0 * faulty_fraction(&cells[base + 1], x);
            rows.push(vec![
                format!("{:.0}%", load * 100.0),
                x.to_string(),
                format!("{analytic:.1}%"),
                format!("{sim_dra:.1}%"),
                format!("{sim_bdr:.1}%"),
            ]);
        }
    }
    print_table(
        "Figure 8 validation: faulty-LC delivery fraction (N=6)",
        &[
            "load",
            "X_faulty",
            "analytic B_faulty",
            "DRA sim",
            "BDR sim",
        ],
        &rows,
    );
    println!(
        "\nReading: the DRA simulation should track the analytic column \
         (within stochastic noise and the cross-traffic the analysis \
         ignores); BDR delivers ~0% on faulty cards."
    );
}

/// Part 3: the same-protocol constraint in the packet simulator — the
/// sim analogue of the Markov model's M parameter.
fn validate_protocol_mix() {
    use dra::net::protocol::ProtocolKind;
    println!("\n#### Part 3: PDLU coverage needs a same-protocol peer (M in the flesh) ####");
    let mut rows = Vec::new();
    for m in [1usize, 2, 3] {
        // N = 6; the first `m` cards are Ethernet, the rest ATM. LC0's
        // PDLU fails: coverage exists iff another Ethernet card exists.
        let protocols: Vec<ProtocolKind> = (0..6)
            .map(|i| {
                if i < m {
                    ProtocolKind::Ethernet
                } else {
                    ProtocolKind::Atm
                }
            })
            .collect();
        let mut sim = DraRouter::simulation(
            DraConfig {
                router: BdrConfig {
                    n_lcs: 6,
                    load: 0.2,
                    protocols,
                    ..BdrConfig::default()
                },
                ..Default::default()
            },
            0xE6,
        );
        Scenario::new(6e-3)
            .at(2e-3, Action::FailComponent(0, ComponentKind::Pdlu))
            .run(&mut sim);
        let m_out = &sim.model().metrics;
        let lc0 = &m_out.lcs[0];
        rows.push(vec![
            m.to_string(),
            format!("{:.1}%", 100.0 * lc0.delivery_ratio()),
            lc0.covered_packets.to_string(),
            lc0.drops(dra::router::metrics::DropCause::NoCoverage)
                .to_string(),
            format!("{}", sim.model().lc_serviceable(0)),
        ]);
    }
    print_table(
        "PDLU failure at LC0 vs same-protocol population M (N=6)",
        &[
            "M",
            "LC0 delivery",
            "covered",
            "no-coverage drops",
            "serviceable",
        ],
        &rows,
    );
    println!(
        "\nReading: with M = 1 (no Ethernet peer) the failed card drops its\n\
         traffic exactly as the model's pd-exhaustion predicts; any peer\n\
         (M >= 2) restores full delivery."
    );
}

/// Print parts 1–3 (`quick`: smaller sweeps).
pub fn run(quick: bool) {
    validate_markov_vs_mc(quick);
    validate_fig8(quick);
    validate_protocol_mix();
}
