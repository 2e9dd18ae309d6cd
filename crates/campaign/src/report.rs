//! Text reporting: aligned tables and grep-friendly CSV.
//!
//! One formatter for every table the `dra` front end prints: sweep
//! grids and results, and the paper's figures.

/// Column headers plus one row of cells per line.
pub type Table = (Vec<&'static str>, Vec<Vec<String>>);

/// Print an aligned text table to stdout.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let parts: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect();
        println!("  {}", parts.join("  "));
    };
    line(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    line(
        &widths
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<String>>(),
    );
    for row in rows {
        line(row);
    }
}

/// Print the same data as CSV lines (prefixed `csv:` for easy grep).
pub fn print_csv(headers: &[&str], rows: &[Vec<String>]) {
    println!("csv:{}", headers.join(","));
    for row in rows {
        println!("csv:{}", row.join(","));
    }
}
