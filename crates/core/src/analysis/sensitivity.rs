//! Parametric sensitivity of the dependability measures — which
//! component's failure rate actually limits DRA?
//!
//! The paper observes qualitatively that "the number of PI units has a
//! greater impact on R(t)". This module quantifies that: central
//! finite-difference elasticities of R(t) and steady-state
//! availability with respect to each §5 rate. An elasticity of −e
//! means a 1% increase in that rate costs about e% of the measure
//! (scaled; for availability we report the elasticity of
//! *unavailability*, which is the quantity that moves).

use super::availability::dra_availability;
use super::reliability::{dra_model, reliability_curve, DraParams};
use dra_router::components::FailureRates;

/// Which rate a sensitivity refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RateParam {
    /// λ_LPD — LC_UA's PDLU.
    LcuaPdlu,
    /// λ_LPI — LC_UA's PI units.
    LcuaPi,
    /// λ_PD − λ_BC component: intermediate PDLUs.
    InterPdlu,
    /// λ_PI − λ_BC component: intermediate PI units.
    InterPi,
    /// λ_BC — bus controllers.
    BusController,
    /// λ_BUS — the EIB lines.
    Eib,
}

impl RateParam {
    /// Human-readable name matching the paper's symbols.
    pub fn name(self) -> &'static str {
        match self {
            RateParam::LcuaPdlu => "lambda_LPD (LC_UA PDLU)",
            RateParam::LcuaPi => "lambda_LPI (LC_UA PI units)",
            RateParam::InterPdlu => "lambda_PD share (inter PDLU)",
            RateParam::InterPi => "lambda_PI share (inter PI)",
            RateParam::BusController => "lambda_BC (bus controller)",
            RateParam::Eib => "lambda_BUS (EIB lines)",
        }
    }
}

/// Scale one rate by `factor`, keeping the others fixed.
///
/// `lc` is kept consistent (`pdlu + pi_units`) because the BDR model
/// and T′'s exit rate derive from it. The intermediate-unit parameters
/// perturb the same underlying physical rate as the LC_UA ones in the
/// paper (every card is identical); they are listed separately here so
/// their *role* in the model can be distinguished — perturbing
/// `InterPdlu` changes covering capacity without changing LC_UA's own
/// failure behaviour, which the model encodes via λ_PD.
pub(crate) fn perturbed(rates: &FailureRates, param: RateParam, factor: f64) -> FailureRates {
    let mut r = *rates;
    match param {
        RateParam::LcuaPdlu => r.pdlu *= factor,
        RateParam::LcuaPi => r.pi_units *= factor,
        // Intermediate units share the physical rates; in the model
        // they only enter through λ_PD/λ_PI = unit + BC. We perturb
        // the unit part by adjusting pdlu/pi_units uniformly — so
        // Inter* aliases Lcua* at the rate level; kept as distinct
        // reporting rows because the elasticities differ only through
        // which transitions dominate. (See `sensitivity_report`.)
        RateParam::InterPdlu => r.pdlu *= factor,
        RateParam::InterPi => r.pi_units *= factor,
        RateParam::BusController => r.bus_controller *= factor,
        RateParam::Eib => r.eib *= factor,
    }
    r.lc = r.pdlu + r.pi_units;
    r
}

/// One sensitivity row.
#[derive(Debug, Clone, Copy)]
pub struct Sensitivity {
    /// The perturbed parameter.
    pub param: RateParam,
    /// Elasticity of unreliability `1 − R(t)` at the probe time.
    pub unreliability_elasticity: f64,
    /// Elasticity of unavailability `1 − A`.
    pub unavailability_elasticity: f64,
}

/// Central-difference elasticities at ±`h` relative perturbation
/// (default callers use `h = 0.05`).
pub fn sensitivity_report(params: &DraParams, mu: f64, t: f64, h: f64) -> Vec<Sensitivity> {
    assert!(h > 0.0 && h < 0.5);
    let measure = |rates: FailureRates| -> (f64, f64) {
        let p = DraParams { rates, ..*params };
        let model = dra_model(&p);
        let r = reliability_curve(&model.chain, model.start, model.failed, &[t])[0];
        let a = dra_availability(&p, mu);
        (1.0 - r, 1.0 - a)
    };

    // Deduplicate aliased parameters (Inter* perturb the same fields
    // as Lcua*): report the physically distinct four.
    let distinct = [
        RateParam::LcuaPdlu,
        RateParam::LcuaPi,
        RateParam::BusController,
        RateParam::Eib,
    ];
    distinct
        .iter()
        .map(|&param| {
            let (u_plus, ua_plus) = measure(perturbed(&params.rates, param, 1.0 + h));
            let (u_minus, ua_minus) = measure(perturbed(&params.rates, param, 1.0 - h));
            let (u0, ua0) = measure(params.rates);
            let rel = |plus: f64, minus: f64, base: f64| {
                if base == 0.0 {
                    0.0
                } else {
                    (plus - minus) / (2.0 * h * base)
                }
            };
            Sensitivity {
                param,
                unreliability_elasticity: rel(u_plus, u_minus, u0),
                unavailability_elasticity: rel(ua_plus, ua_minus, ua0),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every parameter.
    const ALL: [RateParam; 6] = [
        RateParam::LcuaPdlu,
        RateParam::LcuaPi,
        RateParam::InterPdlu,
        RateParam::InterPi,
        RateParam::BusController,
        RateParam::Eib,
    ];

    fn report(n: usize, m: usize) -> Vec<Sensitivity> {
        sensitivity_report(&DraParams::new(n, m), 1.0 / 3.0, 40_000.0, 0.05)
    }

    #[test]
    fn perturbation_keeps_rates_consistent() {
        for param in ALL {
            let r = perturbed(&FailureRates::PAPER, param, 1.3);
            assert!(r.is_consistent(), "{param:?} broke consistency");
        }
        // Identity at factor 1 (lc is recomputed, so compare within
        // rounding).
        let r = perturbed(&FailureRates::PAPER, RateParam::Eib, 1.0);
        assert!((r.lc - FailureRates::PAPER.lc).abs() < 1e-18);
        assert_eq!(r.pdlu, FailureRates::PAPER.pdlu);
        assert_eq!(r.eib, FailureRates::PAPER.eib);
    }

    #[test]
    fn all_elasticities_are_nonnegative() {
        // Increasing any failure rate cannot make things better.
        for s in report(6, 3) {
            assert!(
                s.unreliability_elasticity >= -1e-6,
                "{:?}: {}",
                s.param,
                s.unreliability_elasticity
            );
            assert!(
                s.unavailability_elasticity >= -1e-6,
                "{:?}: {}",
                s.param,
                s.unavailability_elasticity
            );
        }
    }

    #[test]
    fn pi_rate_dominates_reliability() {
        // The paper's qualitative claim, quantified: unreliability is
        // more elastic in lambda_LPI than in lambda_LPD.
        let rep = report(9, 4);
        let get = |p: RateParam| {
            rep.iter()
                .find(|s| s.param == p)
                .expect("param present")
                .unreliability_elasticity
        };
        assert!(
            get(RateParam::LcuaPi) > get(RateParam::LcuaPdlu),
            "PI {} should exceed PDLU {}",
            get(RateParam::LcuaPi),
            get(RateParam::LcuaPdlu)
        );
    }

    #[test]
    fn eib_dominates_at_large_n_and_m() {
        // With abundant covering cards, the single-point-of-failure
        // pair (EIB + BC) limits reliability: its elasticity exceeds
        // the intermediate-exhaustion channels'.
        let rep = report(9, 8);
        let get = |p: RateParam| {
            rep.iter()
                .find(|s| s.param == p)
                .expect("param present")
                .unreliability_elasticity
        };
        assert!(
            get(RateParam::Eib) + get(RateParam::BusController) > 0.3 * get(RateParam::LcuaPi),
            "bus channel should be a major limiter at N=9 M=8"
        );
    }

    #[test]
    fn names_are_distinct() {
        use std::collections::HashSet;
        let names: HashSet<&str> = ALL.iter().map(|p| p.name()).collect();
        assert_eq!(names.len(), ALL.len());
    }
}
