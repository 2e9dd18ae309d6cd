//! Component-failure injection with a repair process.
//!
//! The paper's fault model (§3.2): permanent hardware faults at units
//! along the routing path, exponentially distributed with the §5
//! rates, rectified by replacing the unit (hot-swap), with a fixed
//! repair time irrespective of how many units failed.
//!
//! The injector is deliberately decoupled from the DES kernel: it
//! *samples* failure delays, and `dra_core::scenario::FaultProcess`
//! turns them into a scripted fault timeline that either router
//! replays.

use crate::components::{ComponentKind, FailureRates};
use dra_des::random;
use rand::Rng;

/// How the failure process maps onto components.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultGranularity {
    /// BDR: the whole linecard fails as one unit at rate λ_LC
    /// (reported against the SRU, since BDR folds everything together).
    WholeLc,
    /// DRA: PDLU, SRU, LFE, and bus controller fail independently;
    /// λ_LPI is split evenly between SRU and LFE.
    PerComponent,
}

/// Failure/repair sampling for one router.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    /// Rates per hour.
    pub rates: FailureRates,
    /// Fixed repair time in hours (paper: 3 h or 12 h).
    pub repair_time_h: f64,
    /// Component granularity.
    pub granularity: FaultGranularity,
}

impl FaultInjector {
    /// Injector with the paper's rates.
    pub fn new(repair_time_h: f64, granularity: FaultGranularity) -> Self {
        assert!(repair_time_h > 0.0);
        FaultInjector {
            rates: FailureRates::PAPER,
            repair_time_h,
            granularity,
        }
    }

    /// Sample time-to-failure (hours) for every failable unit of a
    /// freshly repaired linecard. Returns `(unit, delay_h)` pairs.
    pub fn arm_linecard<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<(ComponentKind, f64)> {
        match self.granularity {
            FaultGranularity::WholeLc => {
                vec![(ComponentKind::Sru, random::exponential(rng, self.rates.lc))]
            }
            FaultGranularity::PerComponent => {
                let half_pi = self.rates.pi_units / 2.0;
                let mut v = vec![
                    (
                        ComponentKind::Pdlu,
                        random::exponential(rng, self.rates.pdlu),
                    ),
                    (ComponentKind::Sru, random::exponential(rng, half_pi)),
                    (ComponentKind::Lfe, random::exponential(rng, half_pi)),
                ];
                if self.rates.bus_controller > 0.0 {
                    v.push((
                        ComponentKind::BusController,
                        random::exponential(rng, self.rates.bus_controller),
                    ));
                }
                v
            }
        }
    }

    /// Sample time-to-failure (hours) of the EIB passive lines.
    pub fn arm_eib<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<f64> {
        if self.rates.eib > 0.0 {
            Some(random::exponential(rng, self.rates.eib))
        } else {
            None
        }
    }

    /// The fixed repair delay (hours).
    pub fn repair_delay_h(&self) -> f64 {
        self.repair_time_h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn whole_lc_arms_single_failure() {
        let inj = FaultInjector::new(3.0, FaultGranularity::WholeLc);
        let mut rng = SmallRng::seed_from_u64(1);
        let armed = inj.arm_linecard(&mut rng);
        assert_eq!(armed.len(), 1);
        assert!(armed[0].1 > 0.0);
    }

    #[test]
    fn per_component_arms_all_units() {
        let inj = FaultInjector::new(3.0, FaultGranularity::PerComponent);
        let mut rng = SmallRng::seed_from_u64(1);
        let armed = inj.arm_linecard(&mut rng);
        let kinds: Vec<ComponentKind> = armed.iter().map(|&(k, _)| k).collect();
        assert_eq!(
            kinds,
            vec![
                ComponentKind::Pdlu,
                ComponentKind::Sru,
                ComponentKind::Lfe,
                ComponentKind::BusController
            ]
        );
        assert!(armed.iter().all(|&(_, d)| d > 0.0));
    }

    #[test]
    fn mean_time_to_lc_failure_matches_rate() {
        // Min of the per-component exponentials is exponential with the
        // summed rate λ_LC + λ_BC.
        let inj = FaultInjector::new(3.0, FaultGranularity::PerComponent);
        let mut rng = SmallRng::seed_from_u64(7);
        let n = 20_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let first = inj
                .arm_linecard(&mut rng)
                .into_iter()
                .map(|(_, d)| d)
                .fold(f64::INFINITY, f64::min);
            sum += first;
        }
        let mean = sum / n as f64;
        let expect = 1.0 / (FailureRates::PAPER.lc + FailureRates::PAPER.bus_controller);
        assert!(
            (mean / expect - 1.0).abs() < 0.03,
            "mean {mean:.1} vs expected {expect:.1}"
        );
    }

    #[test]
    fn eib_arming_respects_zero_rate() {
        let mut inj = FaultInjector::new(3.0, FaultGranularity::PerComponent);
        let mut rng = SmallRng::seed_from_u64(1);
        assert!(inj.arm_eib(&mut rng).is_some());
        inj.rates.eib = 0.0;
        assert!(inj.arm_eib(&mut rng).is_none());
    }

    #[test]
    #[should_panic]
    fn zero_repair_time_rejected() {
        FaultInjector::new(0.0, FaultGranularity::WholeLc);
    }
}
