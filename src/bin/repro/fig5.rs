//! Figure 5 regenerator: prints the state/transition inventory of the
//! BDR and DRA Markov models, so the model structure can be checked
//! against the paper's diagrams.

use dra::campaign::report::print_table;
use dra::core::analysis::reliability::{
    bdr_reliability_model, dra_model, DraParams, ZoneInterBound,
};
use dra::router::components::FailureRates;

fn describe(chain: &dra::markov::Ctmc, title: &str) {
    let mut rows = Vec::new();
    for s in chain.states() {
        let transitions: Vec<String> = chain
            .generator()
            .row_entries(s.index())
            .filter(|&(c, v)| c != s.index() && v > 0.0)
            .map(|(c, v)| {
                let target = chain.state_by_index(c).expect("generator index in range");
                format!("-> {} @ {:.2e}", chain.label(target), v)
            })
            .collect();
        rows.push(vec![
            chain.label(s).to_string(),
            format!("{:.3e}", chain.exit_rate(s)),
            transitions.join(", "),
        ]);
    }
    print_table(title, &["state", "exit rate", "transitions"], &rows);
}

/// Print the model inventories.
pub fn run() {
    println!("Figure 5 — Markov model structure (paper §5.1)");

    let bdr = bdr_reliability_model(&FailureRates::PAPER, None);
    describe(&bdr.chain, "Fig 5(a): BDR reliability model");

    let p = DraParams::new(3, 2);
    let model = dra_model(&p);
    describe(
        &model.chain,
        "Fig 5(b): DRA reliability model, minimal configuration (N=3, M=2)",
    );

    // Structural summary across the paper's sweep range.
    let mut rows = Vec::new();
    for &(n, m) in &[(3usize, 2usize), (6, 2), (9, 2), (9, 4), (9, 8)] {
        for bound in [
            ZoneInterBound::Extended,
            ZoneInterBound::Saturate,
            ZoneInterBound::ToF,
        ] {
            let model = dra_model(&DraParams {
                bound,
                ..DraParams::new(n, m)
            });
            rows.push(vec![
                n.to_string(),
                m.to_string(),
                format!("{bound:?}"),
                model.chain.n_states().to_string(),
                model.chain.generator().nnz().to_string(),
            ]);
        }
    }
    print_table(
        "DRA model sizes over the Figure-6 sweep",
        &["N", "M", "bound", "states", "transitions"],
        &rows,
    );
}
