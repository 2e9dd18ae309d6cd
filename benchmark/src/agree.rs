//! `agree DIR_A DIR_B`: do two sets of run records of the same code
//! agree within each end-to-end metric's bound?
//!
//! For every workload and end-to-end metric it prints both sets' run
//! count, median and quartiles, and a verdict: `unresolved` when either
//! set's interquartile range is wider than the bound (as a share of its
//! median), else `agree` when the medians differ by at most the bound,
//! else `differ`. It also checks that the exact per-layer counts repeat
//! across traced runs of one workload and seed, that `net_mid` and
//! `net_pdes` produced equal artifact digests wherever they ran the
//! same seed, and reports each set's failed checks.

use crate::metrics::{median, quartiles, ratio, Better, END_TO_END, EXACT_COUNTS};
use crate::workload::WORKLOADS;
use dra_campaign::json::{parse, Json};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// One run record as written by `--record-dir`.
#[derive(Debug)]
struct Record {
    workload: String,
    seed: u64,
    trace: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
    digests: BTreeMap<String, String>,
}

fn load(dir: &Path) -> Result<Vec<Record>, String> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    entries.sort();
    entries
        .iter()
        .map(|path| {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
            let doc = parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
            record(&doc).ok_or_else(|| format!("{}: not a run record", path.display()))
        })
        .collect()
}

fn record(doc: &Json) -> Option<Record> {
    let obj_pairs = |key: &str| match doc.get(key) {
        Some(Json::Obj(pairs)) => Some(pairs.clone()),
        _ => None,
    };
    Some(Record {
        workload: doc.get("workload")?.as_str()?.to_string(),
        seed: doc.get("seed")?.as_u64()?,
        trace: matches!(doc.get("trace")?, Json::Bool(true)),
        attempted: doc.get("attempted")?.as_u64()?,
        failed: doc.get("failed")?.as_u64()?,
        metrics: obj_pairs("metrics")?
            .into_iter()
            .filter_map(|(k, v)| Some((k, v.get("value")?.as_f64()?)))
            .collect(),
        digests: obj_pairs("digests")?
            .into_iter()
            .filter_map(|(k, v)| Some((k, v.as_str()?.to_string())))
            .collect(),
    })
}

/// Compare two record directories; returns the report and whether
/// nothing differs or mismatches (`unresolved` does not fail).
pub fn agree(dir_a: &Path, dir_b: &Path) -> Result<(String, bool), String> {
    let sets = [load(dir_a)?, load(dir_b)?];
    let mut out = String::new();
    let mut ok = true;
    let _ = writeln!(
        out,
        "{:<10} {:<12} {:>5} {:>11} {:>11} {:>11} {:>5} {:>11} {:>11} {:>11} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "n_a",
        "median_a",
        "q1_a",
        "q3_a",
        "n_b",
        "median_b",
        "q1_b",
        "q3_b",
        "worse",
        "bound"
    );
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let values = |set: &[Record]| -> Vec<f64> {
                set.iter()
                    .filter(|r| r.workload == w.name && !r.trace)
                    .filter_map(|r| r.metrics.get(m.name).copied())
                    .collect()
            };
            let (va, vb) = (values(&sets[0]), values(&sets[1]));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (ma, mb) = (median(&va), median(&vb));
            let ((q1a, q3a), (q1b, q3b)) = (quartiles(&va), quartiles(&vb));
            let spread = ratio(q3a - q1a, ma).max(ratio(q3b - q1b, mb));
            // Signed so that positive means B is worse than A.
            let worse = match m.better {
                Better::Lower => ratio(mb - ma, ma),
                Better::Higher => ratio(ma - mb, ma),
            };
            let verdict = if spread > m.bound {
                "unresolved"
            } else if worse.abs() <= m.bound {
                "agree"
            } else {
                ok = false;
                "differ"
            };
            let _ = writeln!(
                out,
                "{:<10} {:<12} {:>5} {:>11.5} {:>11.5} {:>11.5} {:>5} {:>11.5} {:>11.5} {:>11.5} {:>+8.4} {:>6.2}  {verdict}",
                w.name, m.name, va.len(), ma, q1a, q3a, vb.len(), mb, q1b, q3b, worse, m.bound
            );
        }
    }

    // Exact counts: traced runs of one (workload, seed), across both sets.
    let mut traced: BTreeMap<(String, u64), Vec<&Record>> = BTreeMap::new();
    for r in sets.iter().flatten().filter(|r| r.trace) {
        traced
            .entry((r.workload.clone(), r.seed))
            .or_default()
            .push(r);
    }
    for ((workload, seed), runs) in &traced {
        let differing: Vec<&str> = EXACT_COUNTS
            .iter()
            .copied()
            .filter(|name| {
                runs.iter()
                    .any(|r| r.metrics.get(*name) != runs[0].metrics.get(*name))
            })
            .collect();
        if !differing.is_empty() {
            ok = false;
        }
        let _ = writeln!(
            out,
            "exact counts {workload} seed {seed}: {} traced runs, {}",
            runs.len(),
            if differing.is_empty() {
                "repeat exactly".to_string()
            } else {
                format!("MISMATCH in {}", differing.join(", "))
            }
        );
    }

    // Serial and parallel engines must produce the same artifacts.
    let digests = |name: &str| -> BTreeMap<u64, &BTreeMap<String, String>> {
        sets.iter()
            .flatten()
            .filter(|r| r.workload == name && !r.trace)
            .map(|r| (r.seed, &r.digests))
            .collect()
    };
    let (mid, pdes) = (digests("net_mid"), digests("net_pdes"));
    for (seed, a) in &mid {
        let Some(b) = pdes.get(seed) else { continue };
        let shared: Vec<&String> = a.keys().filter(|k| b.contains_key(*k)).collect();
        let equal = shared.iter().all(|k| a[*k] == b[*k]);
        if !equal {
            ok = false;
        }
        let _ = writeln!(
            out,
            "digests net_mid vs net_pdes seed {seed}: {} shared sweeps, {}",
            shared.len(),
            if equal { "equal" } else { "MISMATCH" }
        );
    }

    for (label, set) in ["a", "b"].iter().zip(&sets) {
        let attempted: u64 = set.iter().map(|r| r.attempted).sum();
        let failed: u64 = set.iter().map(|r| r.failed).sum();
        if failed > 0 {
            ok = false;
        }
        let _ = writeln!(
            out,
            "set {label}: {} records, {failed} of {attempted} checks failed",
            set.len()
        );
    }
    Ok((out, ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_record(dir: &Path, name: &str, seed: u64, trace: bool, wall: f64, events: f64) {
        let metric = |v: f64| {
            Json::obj(vec![
                ("value", Json::Num(v)),
                ("unit", Json::Str("s".into())),
            ])
        };
        let doc = Json::obj(vec![
            ("workload", Json::Str("faceoff".into())),
            ("seed", Json::Num(seed as f64)),
            ("trace", Json::Bool(trace)),
            ("attempted", Json::Num(3.0)),
            ("failed", Json::Num(0.0)),
            (
                "metrics",
                Json::obj(vec![
                    ("wall_s", metric(wall)),
                    ("des.events", metric(events)),
                ]),
            ),
            ("digests", Json::Obj(Vec::new())),
        ]);
        std::fs::write(dir.join(name), doc.to_string_pretty()).unwrap();
    }

    fn dirs(tag: &str) -> (std::path::PathBuf, std::path::PathBuf) {
        let base = std::env::temp_dir().join(format!("dra-agree-{tag}-{}", std::process::id()));
        let (a, b) = (base.join("a"), base.join("b"));
        std::fs::create_dir_all(&a).unwrap();
        std::fs::create_dir_all(&b).unwrap();
        (a, b)
    }

    #[test]
    fn verdicts_follow_the_bound() {
        let (a, b) = dirs("verdict");
        for (i, wall) in [10.0, 10.1, 9.9, 10.05, 9.95].iter().enumerate() {
            write_record(&a, &format!("a{i}.json"), i as u64, false, *wall, 0.0);
            write_record(&b, &format!("b{i}.json"), i as u64, false, wall * 1.5, 0.0);
        }
        let (report, ok) = agree(&a, &a).unwrap();
        assert!(ok && report.contains("agree"), "{report}");
        let (report, ok) = agree(&a, &b).unwrap();
        assert!(!ok && report.contains("differ"), "{report}");
        let _ = std::fs::remove_dir_all(a.parent().unwrap());
    }

    #[test]
    fn exact_counts_must_repeat() {
        let (a, b) = dirs("exact");
        write_record(&a, "t.json", 7, true, 1.0, 100.0);
        write_record(&b, "t.json", 7, true, 1.0, 101.0);
        let (report, ok) = agree(&a, &b).unwrap();
        assert!(!ok && report.contains("MISMATCH in des.events"), "{report}");
        let _ = std::fs::remove_dir_all(a.parent().unwrap());
    }
}
