//! Metric definitions, the result line, and order statistics.
//!
//! The two tables below are the benchmark's contract with
//! `BENCHMARK.json` (a unit test keeps them equal): untraced runs emit
//! exactly [`END_TO_END`], traced runs exactly [`PER_LAYER`].

use dra_campaign::json::Json;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory).
    Lower,
    /// Larger is better (throughput).
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    #[cfg(test)]
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user regenerating the artifacts sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// End-to-end metrics, measured with tracing off.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "sim_s_per_s",
        unit: "sim-s/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.05,
    },
];

/// A per-layer metric of the traced run: `(name, unit, better)`.
pub type PerLayer = (&'static str, &'static str, Better);

/// Per-layer metrics, measured by the separate traced run.
pub const PER_LAYER: [PerLayer; 36] = [
    ("topo.topology_s", "s", Better::Lower),
    ("topo.routes_s", "s", Better::Lower),
    ("topo.fib_compile_s", "s", Better::Lower),
    ("topo.node_state_s", "s", Better::Lower),
    ("topo.build_rss_mb", "MiB", Better::Lower),
    ("topo.run_s", "s", Better::Lower),
    ("topo.ns_per_hop", "ns", Better::Lower),
    ("topo.allocs_per_hop", "count", Better::Lower),
    ("topo.hops", "count", Better::Higher),
    ("topo.injected", "count", Better::Higher),
    ("topo.delivered", "count", Better::Higher),
    ("topo.drops", "count", Better::Lower),
    ("topo.delivery_ratio", "ratio", Better::Higher),
    ("des.events", "count", Better::Lower),
    ("des.pdes_run_s", "s", Better::Lower),
    ("des.pdes_vs_serial", "ratio", Better::Higher),
    ("des.pdes_allocs_per_hop", "count", Better::Lower),
    ("core.fault_sample_s", "s", Better::Lower),
    ("core.fault_actions", "count", Better::Higher),
    ("core.dra_run_s", "s", Better::Lower),
    ("core.eib_packets", "count", Better::Higher),
    ("core.eib_collisions", "count", Better::Lower),
    ("core.covered_packets", "count", Better::Higher),
    ("router.build_s", "s", Better::Lower),
    ("router.bdr_run_s", "s", Better::Lower),
    ("router.ns_per_event", "ns", Better::Lower),
    ("router.allocs_per_event", "count", Better::Lower),
    ("router.offered_pkts", "count", Better::Higher),
    ("router.delivered_pkts", "count", Better::Higher),
    ("router.delivery_ratio", "ratio", Better::Higher),
    ("campaign.sweep_s", "s", Better::Lower),
    ("campaign.envelope_s", "s", Better::Lower),
    ("campaign.validate_s", "s", Better::Lower),
    ("campaign.artifact_kb", "KiB", Better::Lower),
    ("trace.total_s", "s", Better::Lower),
    ("trace.residual_s", "s", Better::Lower),
];

/// Per-layer counts that no speed-only change may move: `agree` checks
/// that they repeat exactly across traced runs of one workload and seed.
pub const EXACT_COUNTS: [&str; 11] = [
    "topo.hops",
    "topo.injected",
    "topo.delivered",
    "topo.drops",
    "des.events",
    "core.fault_actions",
    "core.eib_packets",
    "core.eib_collisions",
    "core.covered_packets",
    "router.offered_pkts",
    "router.delivered_pkts",
];

/// Correctness checks attempted and failed during one run.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks attempted.
    pub attempted: u64,
    /// Checks failed.
    pub failed: u64,
}

impl Checks {
    /// Record one check; a failure is reported on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED: {}", what());
        }
    }

    /// Failed checks over attempted checks.
    pub fn fail_frac(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }
}

/// Named metric values of one run, in emission order.
pub type Values = Vec<(&'static str, f64)>;

/// The `metrics` object of the result line, built from `values` in the
/// order of `defs` (`(name, unit)` pairs). Panics if the two disagree:
/// that is a bug in this benchmark, not a measurement.
pub fn metrics_json(defs: &[(&'static str, &'static str)], values: &Values) -> Json {
    assert_eq!(
        values.iter().map(|v| v.0).collect::<Vec<_>>(),
        defs.iter().map(|d| d.0).collect::<Vec<_>>(),
        "emitted metrics differ from the declared list"
    );
    Json::Obj(
        defs.iter()
            .zip(values)
            .map(|(&(name, unit), &(_, value))| {
                (
                    name.to_string(),
                    Json::obj(vec![
                        ("value", Json::Num(value)),
                        ("unit", Json::Str(unit.into())),
                    ]),
                )
            })
            .collect(),
    )
}

/// `num / den`, or 0 when a layer did no work (`den == 0`).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// `(name, unit)` of the end-to-end metrics.
pub fn end_to_end_defs() -> Vec<(&'static str, &'static str)> {
    END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
}

/// `(name, unit)` of the per-layer metrics.
pub fn per_layer_defs() -> Vec<(&'static str, &'static str)> {
    PER_LAYER.iter().map(|m| (m.0, m.1)).collect()
}

/// Median (mean of the middle pair for even counts), as Python's
/// `statistics.median`. Empty input gives 0.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles by Python's `statistics.quantiles(values,
/// n=4)` (the default "exclusive" method). One value gives itself.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dra_campaign::json::parse;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        parse(&text).expect("BENCHMARK.json parses")
    }

    fn declared(doc: &Json, key: &str) -> Vec<Json> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
            .to_vec()
    }

    fn field<'a>(m: &'a Json, key: &str) -> &'a Json {
        m.get(key)
            .unwrap_or_else(|| panic!("metric entry lacks {key}"))
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        for name in &names {
            assert!(
                !name.is_empty()
                    && name.len() <= 64
                    && name.starts_with(|c: char| c.is_ascii_alphanumeric())
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')),
                "bad metric name {name:?}"
            );
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate metric names");
        for name in EXACT_COUNTS {
            assert!(
                PER_LAYER.iter().any(|m| m.0 == name),
                "{name} not a per-layer metric"
            );
        }
    }

    #[test]
    fn tables_equal_benchmark_json() {
        let doc = benchmark_json();
        let e2e = declared(&doc, "end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(END_TO_END) {
            assert_eq!(field(j, "name").as_str(), Some(m.name));
            assert_eq!(field(j, "unit").as_str(), Some(m.unit));
            assert_eq!(field(j, "better").as_str(), Some(m.better.label()));
            assert_eq!(field(j, "bound").as_f64(), Some(m.bound));
        }
        let layer = declared(&doc, "per_layer");
        assert_eq!(layer.len(), PER_LAYER.len());
        for (j, m) in layer.iter().zip(PER_LAYER) {
            assert_eq!(field(j, "name").as_str(), Some(m.0));
            assert_eq!(field(j, "unit").as_str(), Some(m.1));
            assert_eq!(field(j, "better").as_str(), Some(m.2.label()));
        }
        let workloads: Vec<String> = declared(&doc, "workloads")
            .iter()
            .map(|w| field(w, "name").as_str().unwrap().to_string())
            .collect();
        let ours: Vec<String> = crate::workload::WORKLOADS
            .iter()
            .map(|w| w.name.to_string())
            .collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn setup_has_the_largest_bound() {
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
    }

    #[test]
    fn metrics_json_rejects_a_mismatched_list() {
        let defs = end_to_end_defs();
        let values: Values = END_TO_END.iter().map(|m| (m.name, 1.5)).collect();
        let j = metrics_json(&defs, &values);
        assert_eq!(
            j.get("wall_s")
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64),
            Some(1.5)
        );
        let short: Values = values[1..].to_vec();
        assert!(std::panic::catch_unwind(|| metrics_json(&defs, &short)).is_err());
    }
}
