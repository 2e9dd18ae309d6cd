//! Inverse queries over the dependability models — the questions an
//! operator actually asks ("what do I need to hit nine nines?"),
//! answered by searching the forward models of this module's siblings.

use super::availability::dra_availability;
use super::nines::nines;
use super::reliability::DraParams;

/// Smallest same-protocol population `M` (2 ≤ M ≤ N) achieving at
/// least `target_nines` of availability at the given repair rate, or
/// `None` if even `M = N` falls short.
pub fn min_m_for_availability(n: usize, mu: f64, target_nines: usize) -> Option<usize> {
    assert!(n >= 3 && mu > 0.0 && target_nines >= 1);
    (2..=n).find(|&m| nines(dra_availability(&DraParams::new(n, m), mu)).0 >= target_nines)
}

/// Slowest admissible repair (largest mean repair time, hours) that
/// still achieves `target_nines` for a given `(N, M)`, bisected over
/// `[0.5, 168]` hours. Returns `None` when even 30-minute repair is
/// not enough.
pub fn max_repair_hours_for_availability(n: usize, m: usize, target_nines: usize) -> Option<f64> {
    assert!(n >= 3 && (2..=n).contains(&m) && target_nines >= 1);
    let ok =
        |hours: f64| nines(dra_availability(&DraParams::new(n, m), 1.0 / hours)).0 >= target_nines;
    if !ok(0.5) {
        return None;
    }
    let (mut lo, mut hi) = (0.5_f64, 168.0_f64);
    if ok(hi) {
        return Some(hi);
    }
    // Bisection on the monotone predicate (slower repair only hurts).
    for _ in 0..40 {
        let mid = 0.5 * (lo + hi);
        if ok(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(lo)
}

/// Largest uniform load `L` at which `N` cards can absorb `x_tolerated`
/// simultaneous failures at full service (the closed form behind the
/// `capacity_planning` example): spare `(N−x)(1−L)c` must cover the
/// need `x·L·c`, so `L ≤ (N−x)/N`.
pub fn max_load_for_full_coverage(n: usize, x_tolerated: usize) -> f64 {
    assert!(n >= 2 && x_tolerated >= 1 && x_tolerated < n);
    (n - x_tolerated) as f64 / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::degradation::{b_faulty_fraction, DegradationParams};

    #[test]
    fn min_m_matches_the_figure7_saturation() {
        // At N=9, mu=1/3 the paper's table shows 9^8 at M=2 and 9^9
        // from M=4 on; the unlisted M=3 point already crosses nine
        // nines, which the planner finds.
        assert_eq!(min_m_for_availability(9, 1.0 / 3.0, 8), Some(2));
        assert_eq!(min_m_for_availability(9, 1.0 / 3.0, 9), Some(3));
        // Ten nines are out of reach at this repair speed.
        assert_eq!(min_m_for_availability(9, 1.0 / 3.0, 10), None);
    }

    #[test]
    fn max_repair_hours_brackets_the_paper_points() {
        // (N=3, M=2): 3-hour repair gives 9^8, 12-hour gives 9^7 — so
        // the slowest repair for eight nines lies between them.
        let h = max_repair_hours_for_availability(3, 2, 8).expect("reachable");
        assert!(
            (3.0..12.0).contains(&h),
            "expected threshold between the paper's repair points, got {h}"
        );
        // The found threshold actually satisfies the target…
        assert!(nines(dra_availability(&DraParams::new(3, 2), 1.0 / h)).0 >= 8);
        // …and slightly slower repair does not.
        assert!(nines(dra_availability(&DraParams::new(3, 2), 1.0 / (h * 1.1))).0 < 8);
    }

    #[test]
    fn unreachable_targets_return_none() {
        assert_eq!(max_repair_hours_for_availability(3, 2, 12), None);
    }

    #[test]
    fn load_headroom_closed_form_agrees_with_degradation_model() {
        for n in [4usize, 6, 8] {
            for x in 1..n.min(5) {
                let l_max = max_load_for_full_coverage(n, x);
                let p = |load: f64| DegradationParams {
                    n,
                    c_lc_bps: 10e9,
                    load,
                    bus_capacity_bps: f64::INFINITY,
                };
                // Just under the boundary: full service.
                assert_eq!(b_faulty_fraction(&p(l_max - 1e-9), x), 1.0, "N={n} X={x}");
                // Just over: degraded.
                if l_max + 1e-6 < 1.0 {
                    assert!(b_faulty_fraction(&p(l_max + 1e-6), x) < 1.0);
                }
            }
        }
    }

    #[test]
    fn paper_fig8_boundary_via_planner() {
        // N=6, L=50%: headroom is exactly 3 cards — the crossover seen
        // in Figure 8.
        assert!((max_load_for_full_coverage(6, 3) - 0.5).abs() < 1e-12);
    }
}
