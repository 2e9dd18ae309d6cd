//! Text reporting: aligned tables and grep-friendly CSV.
//!
//! One formatter for every table the `dra` front end prints: sweep
//! grids and results, and the paper's figures.

use crate::json::Json;

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

/// Render a finished `dra-campaign/v1` artifact's cells as a summary
/// table.
pub fn artifact_table(artifact: &Json) -> Table {
    let headers = vec![
        "cell", "id", "arch", "reps", "delivery", "ci95", "drops", "eib pkts",
    ];
    let mut rows = Vec::new();
    if let Some(cells) = artifact.get("cells").and_then(Json::as_arr) {
        for cell in cells {
            let idx = cell
                .get("cell")
                .and_then(Json::as_u64)
                .map(|v| v.to_string())
                .unwrap_or_default();
            let id = cell
                .get("id")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string();
            if let Some(err) = cell.get("error").and_then(Json::as_str) {
                rows.push(vec![
                    idx,
                    id,
                    "-".into(),
                    "-".into(),
                    format!("ERROR: {err}"),
                    String::new(),
                    String::new(),
                    String::new(),
                ]);
                continue;
            }
            let arch = cell
                .get("arch")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string();
            let reps = cell
                .get("replications")
                .and_then(Json::as_u64)
                .map(|v| v.to_string())
                .unwrap_or_default();
            let delivery = cell.get("delivery");
            let mean = delivery
                .and_then(|d| d.get("mean"))
                .and_then(Json::as_f64)
                .map(|v| format!("{:.2}%", v * 100.0))
                .unwrap_or_default();
            let ci = delivery
                .and_then(|d| d.get("ci95"))
                .and_then(Json::as_f64)
                .map(|v| format!("±{:.2}%", v * 100.0))
                .unwrap_or_default();
            let total_drops: f64 = cell
                .get("drops")
                .map(|d| match d {
                    Json::Obj(pairs) => pairs.iter().filter_map(|(_, v)| v.as_f64()).sum(),
                    _ => 0.0,
                })
                .unwrap_or(0.0);
            let eib = cell
                .get("eib")
                .and_then(|e| e.get("packets"))
                .and_then(Json::as_u64)
                .map(|v| v.to_string())
                .unwrap_or_default();
            rows.push(vec![
                idx,
                id,
                arch,
                reps,
                mean,
                ci,
                format!("{total_drops:.0}"),
                eib,
            ]);
        }
    }
    (headers, rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifact_table_handles_error_cells() {
        let artifact = crate::json::parse(
            r#"{"cells":[
                {"cell":0,"id":"dra/a","arch":"dra","replications":2,
                 "delivery":{"n":2,"mean":0.97,"ci95":0.01},
                 "drops":{"x":3,"y":4},"eib":{"packets":12}},
                {"cell":1,"id":"dra/b","error":"boom"}
            ]}"#,
        )
        .unwrap();
        let (headers, rows) = artifact_table(&artifact);
        assert_eq!(headers.len(), 8);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][4], "97.00%");
        assert_eq!(rows[0][6], "7");
        assert!(rows[1][4].contains("boom"));
    }
}
