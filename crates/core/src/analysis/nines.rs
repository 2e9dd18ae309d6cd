//! The paper's availability notation: `9^k x` means `k` consecutive 9s
//! after the decimal point followed by the digit `x` (e.g. `9^4 4` is
//! 0.99994).

/// Decompose an availability in `[0, 1)` into (number of leading 9s,
/// next digit). Values ≥ 1 return `(usize::MAX, 0)` as a sentinel for
/// "perfect"; the formatter renders it as `1.0`.
///
/// Implemented on `1 − a` to stay accurate deep into the nines (the
/// paper reports up to 9⁹): the 9-count is `⌊−log₁₀(1−a)⌋` whenever
/// `1 − a` has no leading-digit-9 wobble, with an explicit digit check
/// to handle boundaries like 0.9995 exactly.
pub fn nines(a: f64) -> (usize, u8) {
    assert!(a.is_finite() && a >= 0.0, "availability out of range: {a}");
    if a >= 1.0 {
        return (usize::MAX, 0);
    }
    let u = 1.0 - a;
    // Candidate count from the magnitude of the unavailability.
    let mut k = (-u.log10()).floor() as i64;
    if k < 0 {
        k = 0;
    }
    let mut k = k as usize;
    // The floor can be off by one at digit boundaries; verify against
    // the actual digit and adjust.
    while k > 0 && digit_after(a, k - 1) != 9 {
        k -= 1;
    }
    while digit_after(a, k) == 9 && k < 15 {
        k += 1;
    }
    (k, digit_after(a, k))
}

/// The `idx`-th digit after the decimal point of `a` (0-based).
fn digit_after(a: f64, idx: usize) -> u8 {
    let shifted = a * 10f64.powi(idx as i32 + 1);
    (shifted.floor() as u64 % 10) as u8
}

/// Render in the paper's notation: `9^4 4` for 0.99994, `0.9x...` for
/// values below 0.9, `1.0` for unity.
pub fn format_nines(a: f64) -> String {
    let (k, d) = nines(a);
    if k == usize::MAX {
        return "1.0".to_string();
    }
    if k == 0 {
        return format!("{a:.4}");
    }
    format!("9^{k} {d}")
}

/// Nines notation for an *estimated* availability: the point value
/// bracketed by the confidence interval, propagated from an
/// unavailability estimate `u ± ci` (the form the rare-event estimators
/// produce).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NinesInterval {
    /// Nines of the conservative edge (availability `1 − (u + ci)`).
    pub lo: (usize, u8),
    /// Nines of the point estimate (availability `1 − u`).
    pub point: (usize, u8),
    /// Nines of the optimistic edge (availability `1 − (u − ci)`);
    /// `None` when the CI reaches unavailability 0, i.e. the data
    /// cannot bound the nines from above.
    pub hi: Option<(usize, u8)>,
}

/// Decompose an unavailability estimate with 95% half-width into a
/// nines interval. Accepts the zero-event case (`u = 0` with `ci`
/// carrying an upper *bound*): the bound becomes the conservative
/// edge and the optimistic edge is unbounded.
pub fn nines_interval(unavailability: f64, ci_half: f64) -> NinesInterval {
    assert!(
        unavailability.is_finite() && unavailability >= 0.0 && ci_half >= 0.0,
        "bad estimate ({unavailability} ± {ci_half})"
    );
    let lo_avail = (1.0 - (unavailability + ci_half)).max(0.0);
    let hi_u = unavailability - ci_half;
    NinesInterval {
        lo: nines(lo_avail),
        point: nines((1.0 - unavailability).max(0.0)),
        hi: (hi_u > 0.0).then(|| nines(1.0 - hi_u)),
    }
}

/// Render a [`NinesInterval`] in the paper's notation, e.g.
/// `9^8 7 [9^8 2, 9^9 1]`; an unbounded optimistic edge renders as `∞`.
pub fn format_nines_interval(iv: &NinesInterval) -> String {
    let one = |(k, d): (usize, u8)| {
        if k == usize::MAX {
            "1.0".to_string()
        } else if k == 0 {
            format!("0.{d}…")
        } else {
            format!("9^{k} {d}")
        }
    };
    let hi = iv.hi.map(one).unwrap_or_else(|| "∞".to_string());
    format!("{} [{}, {hi}]", one(iv.point), one(iv.lo))
}

/// Expected downtime per year (minutes) at a given availability — the
/// unit operators actually budget in ("five nines = 5.26 min/yr").
pub fn annual_downtime_minutes(availability: f64) -> f64 {
    assert!(
        (0.0..=1.0).contains(&availability),
        "availability out of range"
    );
    (1.0 - availability) * 365.25 * 24.0 * 60.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn annual_downtime_anchors() {
        // Five nines is the canonical ~5.26 minutes/year.
        let five_nines = annual_downtime_minutes(0.99999);
        assert!((five_nines - 5.2596).abs() < 1e-3, "{five_nines}");
        // Three nines ~ 8.77 hours/year.
        let three = annual_downtime_minutes(0.999) / 60.0;
        assert!((three - 8.766).abs() < 1e-2, "{three}");
        assert_eq!(annual_downtime_minutes(1.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn downtime_rejects_bad_availability() {
        annual_downtime_minutes(1.5);
    }

    #[test]
    fn paper_examples() {
        // 9^4 4 = 0.99994 (four nines then a four).
        assert_eq!(nines(0.99994), (4, 4));
        assert_eq!(format_nines(0.99994), "9^4 4");
    }

    #[test]
    fn shallow_values() {
        assert_eq!(nines(0.5), (0, 5));
        assert_eq!(nines(0.89), (0, 8));
        assert_eq!(format_nines(0.5), "0.5000");
    }

    #[test]
    fn boundary_single_nine() {
        assert_eq!(nines(0.9), (1, 0));
        assert_eq!(nines(0.95), (1, 5));
        assert_eq!(nines(0.99), (2, 0));
    }

    #[test]
    fn deep_nines() {
        assert_eq!(nines(0.999999997), (8, 7));
        assert_eq!(format_nines(0.999999997), "9^8 7");
        assert_eq!(nines(0.9999999996), (9, 6));
        assert_eq!(nines(1.0 - 6e-5), (4, 4)); // 0.99994
    }

    #[test]
    fn bdr_closed_forms() {
        // mu/(mu+lambda) for the paper's BDR numbers.
        let a3 = (1.0 / 3.0) / (1.0 / 3.0 + 2e-5); // ~0.99994 -> 9^4
        assert_eq!(nines(a3).0, 4);
        let a12 = (1.0 / 12.0) / (1.0 / 12.0 + 2e-5); // ~0.99976 -> 9^3
        assert_eq!(nines(a12).0, 3);
    }

    #[test]
    fn unity_and_zero() {
        assert_eq!(format_nines(1.0), "1.0");
        assert_eq!(nines(0.0), (0, 0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn negative_rejected() {
        nines(-0.1);
    }

    #[test]
    fn interval_brackets_the_point() {
        // 1.5e-9 ± 0.5e-9: eight nines conservatively and at the
        // point, nine nines at the optimistic edge.
        let iv = nines_interval(1.5e-9, 0.5e-9);
        assert_eq!(iv.lo.0, 8);
        assert_eq!(iv.point, (8, 8)); // 1 − 1.5e-9
        let hi = iv.hi.expect("bounded above");
        assert_eq!(hi.0, 9);
        assert!(iv.lo.0 <= iv.point.0 && iv.point.0 <= hi.0);
        let s = format_nines_interval(&iv);
        assert!(s.contains("9^8 8"), "{s}");
    }

    #[test]
    fn interval_zero_event_case_is_one_sided() {
        // u = 0 with a rule-of-three style bound as the half-width.
        let iv = nines_interval(0.0, 3e-7);
        assert_eq!(iv.point, (usize::MAX, 0));
        assert_eq!(iv.lo.0, 6, "conservative edge from the bound");
        assert!(iv.hi.is_none(), "no optimistic edge without events");
        assert!(format_nines_interval(&iv).ends_with("∞]"));
    }

    #[test]
    fn count_is_monotone_in_availability() {
        let mut prev = 0usize;
        for k in 1..=9 {
            let a = 1.0 - 10f64.powi(-k) * 0.5; // e.g. 0.995, 0.9995...
            let (count, _) = nines(a);
            assert!(count >= prev, "k={k}: count {count} < prev {prev}");
            prev = count;
        }
    }
}
