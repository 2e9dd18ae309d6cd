//! Sharded-equals-sequential property for the mergeable histogram.
//!
//! Telemetry documents merge per-cell `LogHistogram`s; this property
//! pins that a merge of shards is indistinguishable from one
//! accumulator that saw everything in order.

use dra_des::stats::LogHistogram;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Histogram counts are exact integers, so a merged pair of shards
    /// must agree with the sequential accumulator bit-for-bit: same
    /// totals, same under/overflow, same quantile at every probe.
    #[test]
    fn log_histogram_merge_equals_sequential(
        // Mantissas and exponents spanning well past [lo, hi) so both
        // underflow and overflow buckets get exercised.
        raw in proptest::collection::vec((1u32..1000, -9i32..4), 0..300),
        split in any::<u32>(),
    ) {
        let values: Vec<f64> = raw
            .iter()
            .map(|&(m, e)| m as f64 * 10f64.powi(e))
            .collect();
        let k = if values.is_empty() { 0 } else { split as usize % values.len() };

        let mut sequential = LogHistogram::new(1e-6, 1.0, 40);
        for &v in &values {
            sequential.record(v);
        }

        let mut shard_a = LogHistogram::new(1e-6, 1.0, 40);
        let mut shard_b = LogHistogram::new(1e-6, 1.0, 40);
        for &v in &values[..k] {
            shard_a.record(v);
        }
        for &v in &values[k..] {
            shard_b.record(v);
        }
        shard_a.merge(&shard_b);

        prop_assert_eq!(shard_a.count(), sequential.count());
        prop_assert_eq!(shard_a.underflow(), sequential.underflow());
        prop_assert_eq!(shard_a.overflow(), sequential.overflow());
        if sequential.count() > 0 {
            for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
                let merged = shard_a.quantile(q);
                let expected = sequential.quantile(q);
                prop_assert!(
                    merged == expected
                        || (merged.is_infinite() && expected.is_infinite()),
                    "q={} merged={} sequential={}", q, merged, expected
                );
            }
        }
    }
}
