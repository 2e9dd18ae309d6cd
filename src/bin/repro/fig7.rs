//! Figure 7 regenerator: steady-state LC availability in the paper's
//! `9^k x` notation, for BDR and DRA over the (M, N) grid with repair
//! rates μ = 1/3 and μ = 1/12.

use dra::campaign::pool::parallel_map;
use dra::campaign::report::{print_csv, print_table};
use dra::core::analysis::availability::{bdr_availability, dra_availability};
use dra::core::analysis::nines::format_nines;
use dra::core::analysis::reliability::DraParams;
use dra::router::components::FailureRates;

/// Print the availability grids.
pub fn run() {
    let mus = [(1.0 / 3.0, "mu=1/3"), (1.0 / 12.0, "mu=1/12")];

    for (mu, mu_name) in mus {
        // BDR row.
        let a_bdr = bdr_availability(&FailureRates::PAPER, mu);
        println!(
            "\nBDR availability ({mu_name}): {} ({:.10})",
            format_nines(a_bdr),
            a_bdr
        );

        // DRA grid: M=2 with N=3..9, then N=9 with M=4..8 (the
        // configurations Figure 7 reports).
        let mut cells: Vec<(usize, usize)> = (3..=9).map(|n| (n, 2)).collect();
        cells.extend((4..=8).map(|m| (9, m)));

        let avails = parallel_map(cells.clone(), |&(n, m)| {
            dra_availability(&DraParams::new(n, m), mu)
        });

        let rows: Vec<Vec<String>> = cells
            .iter()
            .zip(&avails)
            .map(|(&(n, m), &a)| {
                vec![
                    n.to_string(),
                    m.to_string(),
                    format_nines(a),
                    format!("{a:.12}"),
                ]
            })
            .collect();
        print_table(
            &format!("Figure 7 — DRA availability ({mu_name})"),
            &["N", "M", "nines", "value"],
            &rows,
        );
        print_csv(&["N", "M", "nines", "value"], &rows);
    }

    println!("\nPaper anchors:");
    println!("  BDR: 9^4 (mu=1/3), 9^3 (mu=1/12)");
    println!("  DRA M=2 N=3: 9^8 (mu=1/3), 9^7 (mu=1/12)");
    println!("  DRA saturates at 9^9 (mu=1/3) / 9^8 (mu=1/12) for M >= 4");
}
