//! Figure 8 regenerator: bandwidth available to faulty linecards
//! (normalized to their load, in %) as failures accumulate, for N = 6
//! and loads L ∈ {15%, 30%, 50%, 70%}.

use dra::campaign::report::{print_csv, print_table};
use dra::core::analysis::degradation::{figure8_series, DegradationParams};

/// Print the degradation series.
pub fn run() {
    let loads = [0.15, 0.30, 0.50, 0.70];
    let series: Vec<Vec<(usize, f64)>> = loads
        .iter()
        .map(|&l| figure8_series(&DegradationParams::paper(l)))
        .collect();

    let headers = ["X_faulty", "L=15%", "L=30%", "L=50%", "L=70%"];
    let rows: Vec<Vec<String>> = (0..series[0].len())
        .map(|i| {
            let mut row = vec![series[0][i].0.to_string()];
            for s in &series {
                row.push(format!("{:.1}%", s[i].1));
            }
            row
        })
        .collect();
    print_table(
        "Figure 8 — % of required bandwidth available to faulty LCs (N=6)",
        &headers,
        &rows,
    );
    print_csv(&headers, &rows);

    println!("\nPaper anchors:");
    println!("  L=15%: 100% for every X_faulty up to N-1 = 5");
    println!("  L=70%, X_faulty=5: below 10% (exact: 3/35 = 8.6%)");

    // Larger-N companion claim: more cards help while failures are few.
    let mut rows = Vec::new();
    for n in [6usize, 8, 12] {
        let p = DegradationParams {
            n,
            ..DegradationParams::paper(0.5)
        };
        let s = figure8_series(&p);
        rows.push(vec![
            n.to_string(),
            format!("{:.1}%", s[0].1),
            format!("{:.1}%", s[1].1),
            format!("{:.1}%", s[s.len() - 1].1),
        ]);
    }
    print_table(
        "Larger N at L=50%: B_faulty for X=1, X=2, X=N-1",
        &["N", "X=1", "X=2", "X=N-1"],
        &rows,
    );
}
