//! Ablations A1–A3 (DESIGN.md §4/§5):
//!
//! * **A1** — the paper's ambiguous Markov semantics: T′ reading
//!   (Literal vs Strict) × Zone-LC_inter bound (Extended / Saturate /
//!   ToF), on both R(t) and availability.
//! * **A2** — EIB data-line capacity sensitivity for Figure 8.
//! * **A3** — repair-rate sweep for availability.
//! * **A4** — rate-parameter elasticities: which component actually
//!   limits DRA's dependability.
//! * **A5** — repair-time distribution: the paper assumes a *fixed*
//!   repair but models it exponentially; Erlang-k phase-type repair
//!   interpolates between the two and shows the figures are robust.

use dra::campaign::pool::parallel_map;
use dra::campaign::report::print_table;
use dra::core::analysis::availability::{bdr_availability, dra_availability};
use dra::core::analysis::degradation::{b_faulty_fraction, DegradationParams};
use dra::core::analysis::nines::format_nines;
use dra::core::analysis::reliability::{
    dra_model, reliability_curve, DraParams, TprimeSemantics, ZoneInterBound,
};
use dra::router::components::FailureRates;

fn a1_semantics() {
    let mut rows = Vec::new();
    for tprime in [TprimeSemantics::Literal, TprimeSemantics::Strict] {
        for bound in [
            ZoneInterBound::Extended,
            ZoneInterBound::Saturate,
            ZoneInterBound::ToF,
        ] {
            let params = DraParams {
                bound,
                tprime,
                ..DraParams::new(9, 4)
            };
            let model = dra_model(&params);
            let r40 = reliability_curve(&model.chain, model.start, model.failed, &[40_000.0])[0];
            let a = dra_availability(&params, 1.0 / 3.0);
            rows.push(vec![
                format!("{tprime:?}"),
                format!("{bound:?}"),
                format!("{r40:.5}"),
                format_nines(a),
            ]);
        }
    }
    print_table(
        "A1 — semantics ablation (N=9, M=4): paper values need Literal T'",
        &["T' semantics", "inter bound", "R(40kh)", "A (mu=1/3)"],
        &rows,
    );
}

fn a2_bus_capacity() {
    let mut rows = Vec::new();
    for bus_gbps in [5.0, 10.0, 20.0, 40.0, 80.0] {
        let mut row = vec![format!("{bus_gbps:.0} Gbps")];
        for &load in &[0.15, 0.5, 0.7] {
            let p = DegradationParams {
                bus_capacity_bps: bus_gbps * 1e9,
                ..DegradationParams::paper(load)
            };
            // X_faulty = 2: the regime where the paper's plot sits
            // between full service and collapse.
            row.push(format!("{:.1}%", 100.0 * b_faulty_fraction(&p, 2)));
        }
        rows.push(row);
    }
    print_table(
        "A2 — EIB capacity sensitivity (N=6, X_faulty=2)",
        &["B_BUS", "L=15%", "L=50%", "L=70%"],
        &rows,
    );
    println!(
        "  The paper's default (40 Gbps) never binds for N=6; the bus only\n  \
         becomes the bottleneck below ~10 Gbps at moderate loads."
    );
}

fn a3_repair_sweep() {
    let mus: Vec<f64> = vec![
        1.0 / 48.0,
        1.0 / 24.0,
        1.0 / 12.0,
        1.0 / 6.0,
        1.0 / 3.0,
        1.0,
    ];
    let cells: Vec<f64> = mus.clone();
    let results = parallel_map(cells, |&mu| {
        (
            bdr_availability(&FailureRates::PAPER, mu),
            dra_availability(&DraParams::new(3, 2), mu),
            dra_availability(&DraParams::new(9, 4), mu),
        )
    });
    let rows: Vec<Vec<String>> = mus
        .iter()
        .zip(&results)
        .map(|(&mu, &(bdr, small, big))| {
            vec![
                format!("1/{:.0} h", 1.0 / mu),
                format_nines(bdr),
                format_nines(small),
                format_nines(big),
            ]
        })
        .collect();
    print_table(
        "A3 — repair-rate sweep",
        &["mu", "BDR", "DRA N=3 M=2", "DRA N=9 M=4"],
        &rows,
    );
}

fn a4_sensitivities() {
    use dra::core::analysis::sensitivity::sensitivity_report;
    for &(n, m) in &[(3usize, 2usize), (9, 8)] {
        let rep = sensitivity_report(&DraParams::new(n, m), 1.0 / 3.0, 40_000.0, 0.05);
        let rows: Vec<Vec<String>> = rep
            .iter()
            .map(|s| {
                vec![
                    s.param.name().to_string(),
                    format!("{:+.3}", s.unreliability_elasticity),
                    format!("{:+.3}", s.unavailability_elasticity),
                ]
            })
            .collect();
        print_table(
            &format!("A4 — elasticities of 1-R(40kh) and 1-A (N={n}, M={m})"),
            &["parameter", "d(1-R)/d(rate) rel.", "d(1-A)/d(rate) rel."],
            &rows,
        );
    }
    println!(
        "  Reading: at small N the LC_UA unit rates dominate; at N=9, M=8 the\n  \
         EIB/bus-controller pair becomes the limiting single point of failure."
    );
}

fn a5_repair_distribution() {
    use dra::core::analysis::availability::dra_availability_erlang;
    let mu = 1.0 / 3.0;
    let mut rows = Vec::new();
    for &(n, m) in &[(3usize, 2usize), (9, 4)] {
        let p = DraParams::new(n, m);
        let base_unavail = 1.0 - dra_availability_erlang(&p, mu, 1);
        for k in [1usize, 2, 4, 8, 16] {
            let a = dra_availability_erlang(&p, mu, k);
            rows.push(vec![
                format!("N={n} M={m}"),
                k.to_string(),
                format_nines(a),
                format!("{:.3}", (1.0 - a) / base_unavail),
            ]);
        }
    }
    print_table(
        "A5 — Erlang-k repair (k=1 exponential ... k→∞ fixed), mu=1/3",
        &["config", "k", "availability", "unavail / k=1"],
        &rows,
    );
    println!(
        "  Reading: tightening the repair distribution toward the paper's\n  \
         'fixed time' assumption only *reduces* unavailability (fewer long\n  \
         repairs overlapping second failures); the nines of Figure 7 stand."
    );
}

/// Print ablations A1–A5.
pub fn run() {
    a1_semantics();
    a2_bus_capacity();
    a3_repair_sweep();
    a4_sensitivities();
    a5_repair_distribution();
}
