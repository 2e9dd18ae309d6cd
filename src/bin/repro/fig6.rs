//! Figure 6 regenerator: LC reliability R(t) under BDR and DRA.
//!
//! Reproduces both panels of the paper's Figure 6:
//! * fixed M = 2, N ∈ {3…9};
//! * fixed N = 9, M ∈ {4…8};
//!
//! plus the BDR curve, over t ∈ [0, 60 000] hours.

use dra::campaign::pool::parallel_map;
use dra::campaign::report::{print_csv, print_table};
use dra::core::analysis::reliability::{
    bdr_reliability_model, dra_model, reliability_curve, DraParams,
};
use dra::router::components::FailureRates;

/// Print the R(t) curves (`quick`: a coarser time grid).
pub fn run(quick: bool) {
    let step = if quick { 20_000.0 } else { 5_000.0 };
    let times: Vec<f64> = (0..)
        .map(|k| k as f64 * step)
        .take_while(|&t| t <= 60_000.0)
        .collect();

    // Series: BDR, then the paper's two sweeps.
    let mut series: Vec<(String, Option<(usize, usize)>)> = vec![("BDR".to_string(), None)];
    for n in 3..=9 {
        series.push((format!("DRA M=2 N={n}"), Some((n, 2))));
    }
    for m in 4..=8 {
        series.push((format!("DRA N=9 M={m}"), Some((9, m))));
    }

    let times_ref = &times;
    let curves: Vec<Vec<f64>> = parallel_map(series.clone(), |(_, nm)| match nm {
        None => {
            let model = bdr_reliability_model(&FailureRates::PAPER, None);
            reliability_curve(&model.chain, model.start, model.failed, times_ref)
        }
        Some((n, m)) => {
            let model = dra_model(&DraParams::new(*n, *m));
            reliability_curve(&model.chain, model.start, model.failed, times_ref)
        }
    });

    let mut headers: Vec<&str> = vec!["t (h)"];
    for (name, _) in &series {
        headers.push(name);
    }
    let rows: Vec<Vec<String>> = times
        .iter()
        .enumerate()
        .map(|(i, &t)| {
            let mut row = vec![format!("{t:.0}")];
            for curve in &curves {
                row.push(format!("{:.6}", curve[i]));
            }
            row
        })
        .collect();

    print_table("Figure 6 — LC reliability R(t)", &headers, &rows);
    print_csv(&headers, &rows);

    // The paper's headline comparisons.
    let idx_40k = times.iter().position(|&t| t >= 40_000.0).unwrap_or(0);
    println!("\nPaper anchors at t = {:.0} h:", times[idx_40k]);
    println!(
        "  BDR R = {:.4}  (paper: drops below 0.5)",
        curves[0][idx_40k]
    );
    let n9m4 = series
        .iter()
        .position(|(name, _)| name == "DRA N=9 M=4")
        .expect("series present");
    println!(
        "  DRA N=9 M=4 R = {:.4}  (paper: remains close to 1.0)",
        curves[n9m4][idx_40k]
    );
    let m2n3 = series
        .iter()
        .position(|(name, _)| name == "DRA M=2 N=3")
        .expect("series present");
    println!(
        "  DRA M=2 N=3 R = {:.4}  (paper: reasonably large improvement over BDR)",
        curves[m2n3][idx_40k]
    );
}
