//! Inverse-transform samplers over any [`rand::Rng`].
//!
//! Implemented here (rather than pulling in `rand_distr`) because the
//! simulators need only a handful of distributions, and owning the code
//! makes the numerical behaviour auditable: every sampler is a few
//! lines of inverse-transform.

use rand::Rng;

/// Sample an exponential with the given `rate` (mean `1/rate`).
///
/// # Panics
/// Panics when `rate` is not strictly positive and finite.
#[inline]
pub fn exponential<R: Rng + ?Sized>(rng: &mut R, rate: f64) -> f64 {
    assert!(
        rate > 0.0 && rate.is_finite(),
        "exponential: bad rate {rate}"
    );
    // gen::<f64>() is in [0,1); use 1-u in (0,1] so ln() is finite.
    let u: f64 = 1.0 - rng.gen::<f64>();
    -u.ln() / rate
}

/// Bernoulli trial with probability `p`.
#[inline]
pub fn coin<R: Rng + ?Sized>(rng: &mut R, p: f64) -> bool {
    assert!((0.0..=1.0).contains(&p), "coin: p out of range");
    rng.gen::<f64>() < p
}

/// Draw an index from `weights` proportionally, given their
/// precomputed sum `total` — **one** uniform variate per draw, walked
/// linearly.
///
/// This is the primitive under competing-risks picks (which transition
/// fires next in a CTMC race) and under *biased* draws for importance
/// sampling: the caller supplies whatever proposal weights it likes and
/// corrects with a likelihood ratio. Zero-weight entries are never
/// selected (the walk passes over them without consuming mass).
///
/// # Panics
/// Panics when `weights` is empty or `total` is not strictly positive.
#[inline]
pub fn weighted_index<R: Rng + ?Sized>(rng: &mut R, weights: &[f64], total: f64) -> usize {
    assert!(
        !weights.is_empty() && total > 0.0 && total.is_finite(),
        "weighted_index: bad inputs"
    );
    let mut x = rng.gen::<f64>() * total;
    for (i, &w) in weights.iter().enumerate() {
        if x < w {
            return i;
        }
        x -= w;
    }
    // Floating-point slack can exhaust the walk; return the last
    // positive-weight entry, as an inverse-CDF draw would.
    weights
        .iter()
        .rposition(|&w| w > 0.0)
        .unwrap_or(weights.len() - 1)
}

/// A discrete empirical distribution over arbitrary items.
///
/// Sampling is O(log n) by binary search on the cumulative weights; the
/// packet-size mixes used by the traffic generators have ≤ 4 entries,
/// but FIB-churn experiments draw from thousands of prefixes.
#[derive(Debug, Clone)]
pub struct Discrete<T: Clone> {
    items: Vec<T>,
    cumulative: Vec<f64>,
}

impl<T: Clone> Discrete<T> {
    /// Build from `(item, weight)` pairs. Weights must be nonnegative
    /// and sum to something positive.
    pub fn new(pairs: &[(T, f64)]) -> Option<Self> {
        if pairs.is_empty() {
            return None;
        }
        let mut items = Vec::with_capacity(pairs.len());
        let mut cumulative = Vec::with_capacity(pairs.len());
        let mut acc = 0.0;
        for (item, w) in pairs {
            if !w.is_finite() || *w < 0.0 {
                return None;
            }
            acc += w;
            items.push(item.clone());
            cumulative.push(acc);
        }
        if acc <= 0.0 {
            return None;
        }
        Some(Discrete { items, cumulative })
    }

    /// Draw one item.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> &T {
        let total = *self.cumulative.last().expect("nonempty");
        let x = rng.gen::<f64>() * total;
        let idx = self.cumulative.partition_point(|&c| c <= x);
        &self.items[idx.min(self.items.len() - 1)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(0xD5A)
    }

    #[test]
    fn exponential_mean_and_positivity() {
        let mut r = rng();
        let rate = 0.25;
        let n = 200_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = exponential(&mut r, rate);
            assert!(x >= 0.0);
            sum += x;
        }
        let mean = sum / n as f64;
        assert!(
            (mean - 4.0).abs() < 0.05,
            "sample mean {mean} too far from 4.0"
        );
    }

    #[test]
    fn exponential_memoryless_tail() {
        // P(X > 2/rate) should be e^-2 ~ 0.1353.
        let mut r = rng();
        let rate = 1.0;
        let n = 100_000;
        let count = (0..n).filter(|_| exponential(&mut r, rate) > 2.0).count();
        let p = count as f64 / n as f64;
        assert!((p - (-2.0_f64).exp()).abs() < 0.01, "tail prob {p}");
    }

    #[test]
    #[should_panic(expected = "bad rate")]
    fn exponential_rejects_zero_rate() {
        exponential(&mut rng(), 0.0);
    }

    #[test]
    fn coin_hits_its_probability() {
        let mut r = rng();
        let heads = (0..100_000).filter(|_| coin(&mut r, 0.3)).count();
        let p = heads as f64 / 100_000.0;
        assert!((p - 0.3).abs() < 0.01);
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut r = rng();
        let w = [1.0, 3.0, 0.0, 4.0];
        let total: f64 = w.iter().sum();
        let mut counts = [0usize; 4];
        let n = 100_000;
        for _ in 0..n {
            counts[weighted_index(&mut r, &w, total)] += 1;
        }
        assert_eq!(counts[2], 0, "zero-weight entry drawn");
        for (i, &wi) in w.iter().enumerate() {
            let p = counts[i] as f64 / n as f64;
            assert!((p - wi / total).abs() < 0.01, "idx {i}: p={p}");
        }
    }

    #[test]
    fn weighted_index_trailing_zero_weight_never_selected() {
        // Even if fp slack exhausts the walk, the fallback must land on
        // the last *positive* weight, not a trailing zero.
        let mut r = rng();
        let w = [1.0, 0.0];
        for _ in 0..10_000 {
            assert_eq!(weighted_index(&mut r, &w, 1.0), 0);
        }
    }

    #[test]
    #[should_panic(expected = "bad inputs")]
    fn weighted_index_rejects_empty() {
        weighted_index(&mut rng(), &[], 1.0);
    }

    #[test]
    fn discrete_respects_weights() {
        let d = Discrete::new(&[("a", 1.0), ("b", 3.0)]).unwrap();
        let mut r = rng();
        let n = 100_000;
        let b_count = (0..n).filter(|_| *d.sample(&mut r) == "b").count();
        let p = b_count as f64 / n as f64;
        assert!((p - 0.75).abs() < 0.01, "p(b) = {p}");
    }

    #[test]
    fn discrete_zero_weight_items_never_sampled() {
        let d = Discrete::new(&[(1u8, 0.0), (2u8, 1.0), (3u8, 0.0)]).unwrap();
        let mut r = rng();
        for _ in 0..1000 {
            assert_eq!(*d.sample(&mut r), 2);
        }
    }

    #[test]
    fn discrete_rejects_bad_input() {
        assert!(Discrete::<u8>::new(&[]).is_none());
        assert!(Discrete::new(&[(1u8, -1.0)]).is_none());
        assert!(Discrete::new(&[(1u8, 0.0)]).is_none());
        assert!(Discrete::new(&[(1u8, f64::NAN)]).is_none());
    }

    #[test]
    fn discrete_single_item() {
        let d = Discrete::new(&[(7u8, 0.5)]).unwrap();
        assert_eq!(*d.sample(&mut rng()), 7);
    }
}
