//! Online statistics for simulation output analysis.
//!
//! Everything here is single-pass and allocation-free per observation,
//! so metrics can be updated on the simulator's hot path.

/// Welford's online mean/variance accumulator.
#[derive(Debug, Clone)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for Welford {
    /// Same as [`Welford::new`] — a derived `Default` would zero the
    /// min/max trackers instead of starting them at ±∞.
    fn default() -> Self {
        Self::new()
    }
}

impl Welford {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Welford {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one observation.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (NaN when empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Largest observation (NaN when empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.max
        }
    }

    /// Half-width of a normal-approximation confidence interval at the
    /// given z-score (1.96 for 95%).
    pub fn ci_half_width(&self, z: f64) -> f64 {
        if self.n < 2 {
            return f64::NAN;
        }
        z * self.std_dev() / (self.n as f64).sqrt()
    }

    /// Merge another accumulator into this one (parallel sweeps).
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Bivariate Welford accumulator for **ratio estimators** — the output
/// analysis of regenerative simulation, where the quantity of interest
/// is `E[X]/E[Y]` over i.i.d. cycle pairs `(x_i, y_i)` (e.g. downtime
/// over cycle length).
///
/// Tracks means, variances, *and the covariance* in one pass, because
/// the delta-method confidence interval for a ratio needs all three:
/// the numerator and denominator of one cycle are strongly correlated
/// and treating them as independent misstates the CI.
#[derive(Debug, Clone, Default)]
pub struct Welford2 {
    n: u64,
    mean_x: f64,
    mean_y: f64,
    m2x: f64,
    m2y: f64,
    cxy: f64,
}

impl Welford2 {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one paired observation `(x, y)`.
    #[inline]
    pub fn push(&mut self, x: f64, y: f64) {
        self.n += 1;
        let n = self.n as f64;
        let dx = x - self.mean_x;
        self.mean_x += dx / n;
        let dy = y - self.mean_y;
        self.mean_y += dy / n;
        // Co-moment uses the pre-update x delta and post-update y mean,
        // the standard single-pass covariance recurrence.
        self.cxy += dx * (y - self.mean_y);
        self.m2x += dx * (x - self.mean_x);
        self.m2y += dy * (y - self.mean_y);
    }

    /// Number of paired observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean of the first coordinate.
    pub fn mean_x(&self) -> f64 {
        self.mean_x
    }

    /// Sample mean of the second coordinate.
    pub fn mean_y(&self) -> f64 {
        self.mean_y
    }

    /// Unbiased sample variance of the first coordinate.
    pub fn var_x(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2x / (self.n - 1) as f64
        }
    }

    /// Unbiased sample variance of the second coordinate.
    pub fn var_y(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2y / (self.n - 1) as f64
        }
    }

    /// Unbiased sample covariance.
    pub fn covariance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.cxy / (self.n - 1) as f64
        }
    }

    /// Point estimate of the ratio `E[X]/E[Y]` (NaN when `mean_y` is 0).
    pub fn ratio(&self) -> f64 {
        self.mean_x / self.mean_y
    }

    /// Delta-method confidence half-width for the ratio at z-score `z`:
    /// `Var(R) ≈ (s_xx − 2R·s_xy + R²·s_yy) / (n·ȳ²)`.
    ///
    /// Returns NaN with fewer than two observations or a zero
    /// denominator mean.
    pub fn ratio_ci_half(&self, z: f64) -> f64 {
        if self.n < 2 || self.mean_y == 0.0 {
            return f64::NAN;
        }
        let r = self.ratio();
        let v = self.var_x() - 2.0 * r * self.covariance() + r * r * self.var_y();
        // Cancellation can drive the delta-method variance a hair
        // negative; clamp rather than emit NaN.
        z * (v.max(0.0) / (self.n as f64 * self.mean_y * self.mean_y)).sqrt()
    }

    /// Merge another accumulator into this one (parallel sweeps,
    /// mirroring [`Welford::merge`]).
    pub fn merge(&mut self, other: &Welford2) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let total = n1 + n2;
        let dx = other.mean_x - self.mean_x;
        let dy = other.mean_y - self.mean_y;
        self.m2x += other.m2x + dx * dx * n1 * n2 / total;
        self.m2y += other.m2y + dy * dy * n1 * n2 / total;
        self.cxy += other.cxy + dx * dy * n1 * n2 / total;
        self.mean_x += dx * n2 / total;
        self.mean_y += dy * n2 / total;
        self.n += other.n;
    }
}

/// Time-weighted average of a piecewise-constant signal, e.g. queue
/// length or "is this linecard operational".
#[derive(Debug, Clone)]
pub struct TimeWeighted {
    last_t: f64,
    last_v: f64,
    integral: f64,
    start_t: f64,
}

impl TimeWeighted {
    /// Start tracking at `t0` with initial value `v0`.
    pub fn new(t0: f64, v0: f64) -> Self {
        TimeWeighted {
            last_t: t0,
            last_v: v0,
            integral: 0.0,
            start_t: t0,
        }
    }

    /// Record that the signal changed to `v` at time `t` (≥ last update).
    #[inline]
    pub fn update(&mut self, t: f64, v: f64) {
        debug_assert!(t >= self.last_t, "time went backwards");
        self.integral += self.last_v * (t - self.last_t);
        self.last_t = t;
        self.last_v = v;
    }

    /// Current value of the signal.
    pub fn current(&self) -> f64 {
        self.last_v
    }

    /// Merge a time-adjacent shard into this accumulator (parallel
    /// sweeps split by *time*, mirroring [`Welford::merge`]).
    ///
    /// `other` must track the same signal over a later window:
    /// `other.start_t >= self.last_t`. Any gap between this
    /// accumulator's last update and `other`'s start is bridged with
    /// the current value — exactly what a sequential accumulator would
    /// have integrated, since the signal is piecewise-constant.
    pub fn merge(&mut self, other: &TimeWeighted) {
        debug_assert!(
            other.start_t >= self.last_t,
            "TimeWeighted::merge: shards must be time-adjacent (other starts at {}, self last updated at {})",
            other.start_t,
            self.last_t
        );
        self.integral += self.last_v * (other.start_t - self.last_t) + other.integral;
        self.last_t = other.last_t;
        self.last_v = other.last_v;
    }

    /// Time-weighted mean over `[start, t_end]`.
    pub fn average(&self, t_end: f64) -> f64 {
        debug_assert!(t_end >= self.last_t);
        let span = t_end - self.start_t;
        if span <= 0.0 {
            return self.last_v;
        }
        (self.integral + self.last_v * (t_end - self.last_t)) / span
    }
}

/// The log-bucketed latency histogram. It lives in `dra-telemetry` so
/// the metrics registry and the simulators record into one type.
pub use dra_telemetry::LogHistogram;

/// Batch-means confidence interval for a (possibly autocorrelated)
/// steady-state simulation output sequence.
///
/// Splits the series into `batches` contiguous batches, averages each,
/// and treats batch means as independent — the textbook method for DES
/// output analysis.
///
/// Every sample is used: when `samples.len()` is not a multiple of
/// `batches`, the trailing `samples.len() % batches` observations fold
/// into the final batch (its mean is taken over the longer chunk), so
/// the CI really covers as many samples as the caller supplied.
pub fn batch_means_ci(samples: &[f64], batches: usize, z: f64) -> Option<(f64, f64)> {
    if batches < 2 || samples.len() < 2 * batches {
        return None;
    }
    let per = samples.len() / batches;
    let mut w = Welford::new();
    for b in 0..batches {
        let start = b * per;
        let end = if b + 1 == batches {
            samples.len()
        } else {
            start + per
        };
        let chunk = &samples[start..end];
        let mean = chunk.iter().sum::<f64>() / chunk.len() as f64;
        w.push(mean);
    }
    Some((w.mean(), w.ci_half_width(z)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_naive() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::new();
        for &x in &data {
            w.push(x);
        }
        let mean = data.iter().sum::<f64>() / data.len() as f64;
        let var = data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (data.len() - 1) as f64;
        assert!((w.mean() - mean).abs() < 1e-12);
        assert!((w.variance() - var).abs() < 1e-12);
        assert_eq!(w.min(), 2.0);
        assert_eq!(w.max(), 9.0);
        assert_eq!(w.count(), 8);
    }

    #[test]
    fn welford_empty_and_single() {
        let mut w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance(), 0.0);
        assert!(w.min().is_nan());
        w.push(3.0);
        assert_eq!(w.mean(), 3.0);
        assert_eq!(w.variance(), 0.0);
        assert!(w.ci_half_width(1.96).is_nan());
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let a_data = [1.0, 2.0, 3.0];
        let b_data = [10.0, 20.0, 30.0, 40.0];
        let mut a = Welford::new();
        let mut b = Welford::new();
        let mut all = Welford::new();
        for &x in &a_data {
            a.push(x);
            all.push(x);
        }
        for &x in &b_data {
            b.push(x);
            all.push(x);
        }
        a.merge(&b);
        assert!((a.mean() - all.mean()).abs() < 1e-12);
        assert!((a.variance() - all.variance()).abs() < 1e-12);
        assert_eq!(a.count(), 7);

        // Merging into empty copies the other side.
        let mut e = Welford::new();
        e.merge(&all);
        assert!((e.mean() - all.mean()).abs() < 1e-12);
    }

    #[test]
    fn welford2_matches_naive() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let ys = [2.0, 3.0, 7.0, 6.0, 10.0];
        let mut w = Welford2::new();
        for (&x, &y) in xs.iter().zip(&ys) {
            w.push(x, y);
        }
        let mx = xs.iter().sum::<f64>() / 5.0;
        let my = ys.iter().sum::<f64>() / 5.0;
        let cov = xs
            .iter()
            .zip(&ys)
            .map(|(x, y)| (x - mx) * (y - my))
            .sum::<f64>()
            / 4.0;
        assert!((w.mean_x() - mx).abs() < 1e-12);
        assert!((w.mean_y() - my).abs() < 1e-12);
        assert!((w.covariance() - cov).abs() < 1e-12);
        assert!((w.ratio() - mx / my).abs() < 1e-12);
        assert!(w.ratio_ci_half(1.96) > 0.0);
    }

    #[test]
    fn welford2_perfectly_correlated_ratio_has_zero_ci() {
        // y = 2x exactly: the ratio x/y is 0.5 with zero sampling
        // noise, which only a covariance-aware CI can see.
        let mut w = Welford2::new();
        for i in 1..=100 {
            let x = i as f64;
            w.push(x, 2.0 * x);
        }
        assert!((w.ratio() - 0.5).abs() < 1e-12);
        assert!(
            w.ratio_ci_half(1.96).abs() < 1e-9,
            "ci {} should vanish",
            w.ratio_ci_half(1.96)
        );
    }

    #[test]
    fn welford2_merge_equals_sequential() {
        let pairs: Vec<(f64, f64)> = (0..50)
            .map(|i| ((i * 7 % 13) as f64, 1.0 + (i * 5 % 11) as f64))
            .collect();
        let mut all = Welford2::new();
        let mut a = Welford2::new();
        let mut b = Welford2::new();
        for (i, &(x, y)) in pairs.iter().enumerate() {
            all.push(x, y);
            if i < 20 {
                a.push(x, y);
            } else {
                b.push(x, y);
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean_x() - all.mean_x()).abs() < 1e-12);
        assert!((a.covariance() - all.covariance()).abs() < 1e-9);
        assert!((a.ratio_ci_half(1.96) - all.ratio_ci_half(1.96)).abs() < 1e-12);
    }

    #[test]
    fn time_weighted_average() {
        // Signal: 0 on [0,1), 2 on [1,3), 1 on [3,4].
        let mut tw = TimeWeighted::new(0.0, 0.0);
        tw.update(1.0, 2.0);
        tw.update(3.0, 1.0);
        let avg = tw.average(4.0);
        let expect = (0.0 * 1.0 + 2.0 * 2.0 + 1.0 * 1.0) / 4.0;
        assert!((avg - expect).abs() < 1e-12);
        assert_eq!(tw.current(), 1.0);
    }

    #[test]
    fn time_weighted_zero_span() {
        let tw = TimeWeighted::new(5.0, 3.0);
        assert_eq!(tw.average(5.0), 3.0);
    }

    #[test]
    fn batch_means_basic() {
        // Constant series: CI should collapse to zero width.
        let samples = vec![5.0; 100];
        let (mean, hw) = batch_means_ci(&samples, 10, 1.96).unwrap();
        assert_eq!(mean, 5.0);
        assert_eq!(hw, 0.0);
    }

    #[test]
    fn batch_means_requires_enough_data() {
        assert!(batch_means_ci(&[1.0, 2.0], 2, 1.96).is_none());
        assert!(batch_means_ci(&[1.0; 100], 1, 1.96).is_none());
    }

    #[test]
    fn batch_means_uses_trailing_remainder() {
        // 103 samples over 10 batches: the last 13 observations form
        // the final batch. Put all the signal in the tail — a version
        // that truncates to 100 samples would report mean 0.
        let mut samples = vec![0.0; 100];
        samples.extend_from_slice(&[30.0, 30.0, 30.0]);
        let (mean, _) = batch_means_ci(&samples, 10, 1.96).unwrap();
        // Batches 0..9 have mean 0; the last (13 samples, 3 of them
        // 30.0) has mean 90/13. Grand mean over batch means:
        let expected = (90.0 / 13.0) / 10.0;
        assert!(
            (mean - expected).abs() < 1e-12,
            "remainder must fold into the last batch: {mean} vs {expected}"
        );
    }

    #[test]
    fn batch_means_covers_true_mean() {
        // AR(1)-ish correlated noise around 10.0.
        let mut x = 0.0;
        let mut state = 12345u64;
        let mut rand01 = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as f64 / u64::MAX as f64
        };
        let samples: Vec<f64> = (0..10_000)
            .map(|_| {
                x = 0.9 * x + (rand01() - 0.5);
                10.0 + x
            })
            .collect();
        let (mean, hw) = batch_means_ci(&samples, 20, 2.6).unwrap();
        assert!(
            (mean - 10.0).abs() < hw + 0.5,
            "mean {mean} hw {hw} should cover 10"
        );
    }
}
