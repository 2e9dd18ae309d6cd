//! In-memory spans for the traced run.
//!
//! Spans are recorded from the benchmark's own code around each call
//! into a layer's public API, kept in memory, and written out once at
//! exit. A span's self time is its duration minus the part of its
//! interval that its child spans cover; the per-layer rows are sums of
//! self times by span name.

use dra_campaign::json::Json;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call or grouping (`topo.run`, `rep`, ...).
    pub name: &'static str,
    /// `workload/sweep/cell/rep` for replication spans and their
    /// children; `workload/sweep` for sweep-level spans.
    pub trace: String,
    /// Seconds since the tracer started.
    pub start_s: f64,
    /// Seconds since the tracer started.
    pub end_s: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

impl Span {
    fn duration(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Records nested spans on one thread.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name`; spans `f` opens nest under it.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        trace: &str,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start_s = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            trace: trace.to_string(),
            start_s,
            end_s: start_s,
            parent,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_s = self.origin.elapsed().as_secs_f64();
        out
    }

    /// Every recorded span, in start order.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Σ self time of the spans named `name`.
    pub fn self_time(&self, name: &str) -> f64 {
        let selfs = self_times(&self.spans);
        self.spans
            .iter()
            .zip(selfs)
            .filter(|(s, _)| s.name == name)
            .fold(0.0, |acc, (_, t)| acc + t)
    }

    /// Σ duration of the spans named `name`.
    pub fn duration(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |acc, s| acc + s.duration())
    }

    /// The spans as a JSON document (`parent` is a span index).
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj(vec![
                        ("name", Json::Str(s.name.into())),
                        ("trace", Json::Str(s.trace.clone())),
                        ("start_s", Json::Num(s.start_s)),
                        ("end_s", Json::Num(s.end_s)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                    ])
                })
                .collect(),
        )
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, clipped to its own interval.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_s, s.end_s));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = s.start_s;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_s));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_s: f64, end_s: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            trace: "w/0/c/0".into(),
            start_s,
            end_s,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", 0.0, 10.0, None),
            span("a", 1.0, 3.0, Some(0)),
            // Overlaps `a`: the union, not the sum, is subtracted.
            span("b", 2.0, 5.0, Some(0)),
            // Runs past its parent: clipped to the parent's interval.
            span("c", 8.0, 12.0, Some(0)),
            span("grandchild", 3.0, 4.0, Some(2)),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], 10.0 - 4.0 - 2.0);
        assert_eq!(selfs[1], 2.0);
        assert_eq!(selfs[2], 3.0 - 1.0);
        assert_eq!(selfs[4], 1.0);
    }

    #[test]
    fn nested_tracer_spans_partition_the_root() {
        let mut t = Tracer::new();
        t.span("root", "w/0", |t| {
            t.span("leaf", "w/0/c/0", |t| t.span("inner", "w/0/c/0", |_| ()));
            t.span("leaf", "w/0/c/1", |_| ());
        });
        let root = t.duration("root");
        let sum = t.self_time("root") + t.self_time("leaf") + t.self_time("inner");
        assert!((root - sum).abs() < 1e-9, "{root} vs {sum}");
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[2].parent, Some(1));
        assert_eq!(t.spans()[3].parent, Some(0));
    }
}
