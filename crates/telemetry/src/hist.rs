//! The workspace's one log-spaced histogram.
//!
//! The metrics registry records into it, and `dra_des::stats`
//! re-exports it for the simulators' latency metrics, so a router's
//! per-path latency and a telemetry snapshot bucket and quantile the
//! same way. Counts are exact integers, so sharded merges reproduce
//! sequential quantiles bit-for-bit.

/// A histogram with logarithmically spaced buckets over `[lo, hi)` and
/// under/overflow rails, for latency-style quantities spanning orders
/// of magnitude.
#[derive(Debug, Clone)]
pub struct LogHistogram {
    lo: f64,
    ratio: f64,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
    total: u64,
}

impl LogHistogram {
    /// Buckets spanning `[lo, hi)` with `n` logarithmic divisions.
    ///
    /// # Panics
    /// Panics unless `0 < lo < hi` and `n > 0`.
    pub fn new(lo: f64, hi: f64, n: usize) -> Self {
        assert!(lo > 0.0 && hi > lo && n > 0, "LogHistogram: bad params");
        LogHistogram {
            lo,
            ratio: (hi / lo).powf(1.0 / n as f64),
            counts: vec![0; n],
            underflow: 0,
            overflow: 0,
            total: 0,
        }
    }

    /// Record one observation.
    #[inline]
    pub fn record(&mut self, x: f64) {
        self.total += 1;
        if x < self.lo {
            self.underflow += 1;
            return;
        }
        let idx = ((x / self.lo).ln() / self.ratio.ln()).floor() as usize;
        if idx >= self.counts.len() {
            self.overflow += 1;
        } else {
            self.counts[idx] += 1;
        }
    }

    /// Total observations, including under/overflow.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Count below the bottom bucket.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Count of observations that exceeded the top bucket.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Approximate quantile: the geometric midpoint of the bucket
    /// containing quantile `q` in `[0, 1]` (`lo` if it lands in
    /// underflow, `+inf` if it lands in overflow, NaN when empty).
    ///
    /// `q = 0.0` is the minimum observation's bucket — i.e. the first
    /// *non-empty* bucket, not bucket 0 (which may hold no mass).
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q));
        if self.total == 0 {
            return f64::NAN;
        }
        // `q = 0` would give target 0, which every prefix sum
        // satisfies — clamp to 1 so the scan still has to reach the
        // first observation.
        let target = ((q * self.total as f64).ceil() as u64).max(1);
        let mut acc = self.underflow;
        if acc >= target && self.underflow > 0 {
            return self.lo;
        }
        for (i, &c) in self.counts.iter().enumerate() {
            acc += c;
            if acc >= target {
                let lo = self.lo * self.ratio.powi(i as i32);
                return lo * self.ratio.sqrt();
            }
        }
        f64::INFINITY
    }

    /// Merge another histogram into this one (worker shards, parallel
    /// sweeps). Bucketed counts are exact, so merged quantiles equal
    /// sequential quantiles bit-for-bit.
    ///
    /// # Panics
    /// Panics unless both histograms were built with the same
    /// `(lo, hi, n)` bucket layout.
    pub fn merge(&mut self, other: &LogHistogram) {
        assert!(
            self.lo == other.lo
                && self.ratio == other.ratio
                && self.counts.len() == other.counts.len(),
            "LogHistogram::merge: bucket layouts differ"
        );
        for (c, &o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        self.total += other.total;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_histogram_buckets_and_quantiles() {
        let mut h = LogHistogram::new(1e-6, 1.0, 60);
        for i in 1..=1000 {
            h.record(i as f64 * 1e-5);
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.quantile(0.5);
        // True median is 5.0e-3; log buckets give geometric-mid accuracy.
        assert!(
            (p50 / 5.0e-3).ln().abs() < 0.2,
            "p50 {p50} too far from 5e-3"
        );
        let p99 = h.quantile(0.99);
        assert!(p99 > p50);
    }

    #[test]
    fn log_histogram_under_overflow() {
        let mut h = LogHistogram::new(1.0, 10.0, 4);
        h.record(0.5);
        h.record(100.0);
        h.record(3.0);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.count(), 3);
        // Quantile 1.0 with overflow present reports +inf.
        assert!(h.quantile(1.0).is_infinite());
        // An empty histogram has no quantiles.
        assert!(LogHistogram::new(1.0, 10.0, 4).quantile(0.5).is_nan());
    }

    #[test]
    fn log_histogram_q0_is_first_nonempty_bucket() {
        // All mass far above bucket 0: q=0 must not report bucket 0's
        // midpoint (the old target-0 bug made `acc >= target` pass on
        // the very first, empty bucket).
        let mut h = LogHistogram::new(1.0, 1000.0, 30);
        h.record(100.0);
        h.record(200.0);
        h.record(400.0);
        let q0 = h.quantile(0.0);
        assert!(
            (50.0..=150.0).contains(&q0),
            "q=0 should land in the minimum's bucket, got {q0}"
        );
        // And it coincides with the smallest positive quantile.
        assert_eq!(q0, h.quantile(1e-9));
    }

    #[test]
    fn log_histogram_q0_with_underflow_reports_lo() {
        let mut h = LogHistogram::new(1.0, 10.0, 4);
        h.record(0.1); // underflow
        h.record(5.0);
        assert_eq!(h.quantile(0.0), 1.0);
    }

    #[test]
    fn log_histogram_all_mass_in_high_buckets() {
        let mut h = LogHistogram::new(1e-6, 1.0, 60);
        for _ in 0..10 {
            h.record(0.5); // top of the range
        }
        let q0 = h.quantile(0.0);
        let q100 = h.quantile(1.0);
        assert!(
            (q0 / 0.5).ln().abs() < 0.3,
            "q=0 must track the mass at 0.5, got {q0}"
        );
        assert_eq!(q0, q100, "single-bucket mass: all quantiles agree");
    }
}
