//! Figure 7: steady-state availability under a repair process.
//!
//! The repair process returns the system to `(0,0)` from any degraded
//! state at rate μ ("it is assumed to take a fixed amount of time,
//! irrespective of the type and the number of such units" — modelled
//! as a single exponential repair transition per the Markov framework
//! the paper uses).

use super::reliability::{bdr_reliability_model, dra_model, DraParams};
use dra_markov::steady::{steady_state, SteadyMethod};
use dra_router::components::FailureRates;

/// Steady-state availability of a BDR linecard: `μ / (μ + λ_LC)`.
pub fn bdr_availability(rates: &FailureRates, mu: f64) -> f64 {
    assert!(mu > 0.0);
    let model = bdr_reliability_model(rates, Some(mu));
    let pi = steady_state(&model.chain, SteadyMethod::DirectLu).expect("irreducible");
    1.0 - pi[model.failed.index()]
}

/// Steady-state availability of a DRA linecard for the given `(N, M)`
/// and repair rate μ (per hour).
pub fn dra_availability(params: &DraParams, mu: f64) -> f64 {
    assert!(mu > 0.0);
    let p = DraParams {
        repair: Some(mu),
        ..*params
    };
    let model = dra_model(&p);
    let pi = steady_state(&model.chain, SteadyMethod::DirectLu).expect("irreducible");
    1.0 - pi[model.failed.index()]
}

/// DRA availability with an **Erlang-k** repair time (mean `1/μ`).
///
/// The paper assumes a *fixed* repair time but models it exponentially
/// (the Markov framework's constraint). Sweeping `k` interpolates from
/// the exponential (k = 1, identical to [`dra_availability`]) toward
/// the fixed time (k → ∞); ablation A5 shows the figures barely move —
/// the availability table is robust to the distribution assumption.
pub fn dra_availability_erlang(params: &DraParams, mu: f64, k: usize) -> f64 {
    assert!(mu > 0.0 && k >= 1);
    let p = DraParams {
        repair: None,
        ..*params
    };
    let model = dra_model(&p);
    let (expanded, _, images) =
        dra_markov::phase::with_erlang_repair(&model.chain, model.start, mu, k)
            .expect("valid phase expansion");
    let pi = steady_state(&expanded, SteadyMethod::DirectLu).expect("irreducible");
    1.0 - dra_markov::phase::mass_on(&images, model.failed, &pi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::nines::nines;
    use crate::analysis::reliability::ZoneInterBound;

    const MU_3H: f64 = 1.0 / 3.0;
    const MU_12H: f64 = 1.0 / 12.0;

    #[test]
    fn bdr_matches_closed_form_and_paper_nines() {
        let rates = FailureRates::PAPER;
        let a3 = bdr_availability(&rates, MU_3H);
        let closed = MU_3H / (MU_3H + rates.lc);
        assert!((a3 - closed).abs() < 1e-12);
        // Paper: 9^4 for mu = 1/3.
        assert_eq!(nines(a3).0, 4);
        // Paper: 9^3 for mu = 1/12.
        let a12 = bdr_availability(&rates, MU_12H);
        assert_eq!(nines(a12).0, 3);
    }

    #[test]
    fn paper_anchor_dra_m2_n3() {
        // Paper: 9^8 for mu=1/3 and 9^7 for mu=1/12 at (M=2, N=3).
        let p = DraParams::new(3, 2);
        let a3 = dra_availability(&p, MU_3H);
        assert_eq!(nines(a3).0, 8, "got {a3:.12}");
        let a12 = dra_availability(&p, MU_12H);
        assert_eq!(nines(a12).0, 7, "got {a12:.12}");
    }

    #[test]
    fn paper_anchor_saturation_at_m_ge_4() {
        // Paper: availability saturates at 9^9 (mu=1/3) / 9^8 (mu=1/12)
        // for all M >= 4.
        for m in [4, 6, 8] {
            let p = DraParams::new(9, m);
            let a3 = dra_availability(&p, MU_3H);
            assert_eq!(nines(a3).0, 9, "M={m}: got {a3:.14}");
            let a12 = dra_availability(&p, MU_12H);
            assert_eq!(nines(a12).0, 8, "M={m}: got {a12:.14}");
        }
    }

    #[test]
    fn availability_increases_with_m_and_n() {
        let a_small = dra_availability(&DraParams::new(3, 2), MU_3H);
        let a_mid = dra_availability(&DraParams::new(6, 3), MU_3H);
        let a_big = dra_availability(&DraParams::new(9, 5), MU_3H);
        assert!(
            a_small < a_mid && a_mid <= a_big,
            "{a_small} {a_mid} {a_big}"
        );
    }

    #[test]
    fn faster_repair_helps() {
        let p = DraParams::new(6, 3);
        let slow = dra_availability(&p, MU_12H);
        let fast = dra_availability(&p, MU_3H);
        assert!(fast > slow);
    }

    #[test]
    fn dra_always_beats_bdr() {
        for mu in [MU_3H, MU_12H] {
            let bdr = bdr_availability(&FailureRates::PAPER, mu);
            for (n, m) in [(3, 2), (5, 2), (9, 4)] {
                let dra = dra_availability(&DraParams::new(n, m), mu);
                assert!(dra > bdr, "N={n} M={m} mu={mu}: {dra} vs {bdr}");
            }
        }
    }

    #[test]
    fn bound_semantics_barely_move_availability() {
        // The zone-boundary ambiguity is a second-order effect with
        // repair present (multiple pre-failure faults are rare).
        let mk = |bound| {
            dra_availability(
                &DraParams {
                    bound,
                    ..DraParams::new(4, 2)
                },
                MU_3H,
            )
        };
        let ext = mk(ZoneInterBound::Extended);
        let sat = mk(ZoneInterBound::Saturate);
        let tof = mk(ZoneInterBound::ToF);
        assert!((ext - sat).abs() < 1e-6);
        // ToF lets healthy-LC_UA states die, visibly worse but same
        // order of magnitude.
        assert!(tof <= ext);
    }

    #[test]
    fn erlang_k1_equals_exponential_repair() {
        let p = DraParams::new(5, 3);
        let a_exp = dra_availability(&p, MU_3H);
        let a_k1 = dra_availability_erlang(&p, MU_3H, 1);
        assert!((a_exp - a_k1).abs() < 1e-12, "{a_exp} vs {a_k1}");
    }

    #[test]
    fn repair_distribution_is_second_order() {
        // The headline of ablation A5: moving from exponential toward
        // deterministic repair changes the unavailability by well under
        // an order of magnitude — the paper's nines survive.
        let p = DraParams::new(4, 2);
        let u1 = 1.0 - dra_availability_erlang(&p, MU_3H, 1);
        let u8 = 1.0 - dra_availability_erlang(&p, MU_3H, 8);
        assert!(u8 > 0.0 && u1 > 0.0);
        let ratio = u8 / u1;
        assert!(
            (0.3..=1.05).contains(&ratio),
            "unavailability ratio k=8/k=1 = {ratio}"
        );
        // Less repair-time variance can only help (fewer long outages
        // overlapping second failures), so k=8 must not be worse.
        assert!(u8 <= u1 * 1.001);
    }

    #[test]
    fn transient_availability_approaches_steady_state() {
        let p = DraParams {
            repair: Some(MU_3H),
            ..DraParams::new(5, 3)
        };
        let model = dra_model(&p);
        let pi0 = model.chain.point_mass(model.start).unwrap();
        let pi_t = dra_markov::transient::transient(
            &model.chain,
            &pi0,
            200_000.0,
            dra_markov::TransientOptions::default(),
        )
        .unwrap();
        let a_t = 1.0 - pi_t[model.failed.index()];
        let a_ss = dra_availability(&DraParams::new(5, 3), MU_3H);
        assert!((a_t - a_ss).abs() < 1e-9, "{a_t} vs {a_ss}");
    }
}
