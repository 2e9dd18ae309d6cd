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
    pub(crate) fn std_dev(&self) -> f64 {
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

    /// Sample mean of the second coordinate.
    pub fn mean_y(&self) -> f64 {
        self.mean_y
    }

    /// Unbiased sample variance of the first coordinate.
    pub(crate) fn var_x(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2x / (self.n - 1) as f64
        }
    }

    /// Unbiased sample variance of the second coordinate.
    pub(crate) fn var_y(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2y / (self.n - 1) as f64
        }
    }

    /// Unbiased sample covariance.
    pub(crate) fn covariance(&self) -> f64 {
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
        assert!((w.mean_x - mx).abs() < 1e-12);
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
    fn time_weighted_average() {
        // Signal: 0 on [0,1), 2 on [1,3), 1 on [3,4].
        let mut tw = TimeWeighted::new(0.0, 0.0);
        tw.update(1.0, 2.0);
        tw.update(3.0, 1.0);
        let avg = tw.average(4.0);
        let expect = (0.0 * 1.0 + 2.0 * 2.0 + 1.0 * 1.0) / 4.0;
        assert!((avg - expect).abs() < 1e-12);
    }

    #[test]
    fn time_weighted_zero_span() {
        let tw = TimeWeighted::new(5.0, 3.0);
        assert_eq!(tw.average(5.0), 3.0);
    }
}
