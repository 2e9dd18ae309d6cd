//! The Figure-5 Markov models and the Figure-6 reliability curves.
//!
//! States follow the paper's §5.1 notation:
//!
//! * Zone-LC_inter `(i, j)` — `i` of the `M−1` same-protocol LC_inter
//!   PDLUs and `j` of the `N−2` LC_inter PI-unit groups have failed;
//!   LC_UA itself is healthy. `(0, 0)` is the initial state.
//! * Zone-LC_UA `i_PD` / `j_PI` — LC_UA's PDLU (resp. PI units) has
//!   failed and is being covered; `i`/`j` counts how many covering
//!   units have additionally failed.
//! * `T'` — the EIB or LC_UA's bus controller has failed; packets
//!   still flow through the fabric but no coverage is possible.
//! * `F` — service to LC_UA's ports has stopped.
//!
//! The paper leaves the Zone-LC_inter boundary ambiguous (see
//! DESIGN.md §4); [`ZoneInterBound`] selects a reading, with
//! [`ZoneInterBound::Extended`] — track intermediate failures all the
//! way to exhaustion while LC_UA is healthy — as the physically
//! consistent default.

use dra_markov::{Ctmc, CtmcBuilder, StateId, TransientOptions};
use dra_router::components::FailureRates;

/// Where Zone-LC_UA states go when the EIB or LC_UA's bus controller
/// fails (DESIGN.md §4, ablation A1).
///
/// The paper states "All states (except F) move to State T′ if the EIB
/// or LCUA's bus controller fails" — and only that reading reproduces
/// its Figure-6/7 numbers (e.g. 9⁸ availability at M=2, N=3 with
/// μ=1/3), so [`TprimeSemantics::Literal`] is the default. It is,
/// however, physically generous: an LC_UA that already lost a unit and
/// then loses the bus cannot really keep forwarding. `Strict` routes
/// those states to `F` instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TprimeSemantics {
    /// The paper's sentence, verbatim: every non-F state moves to T′.
    Literal,
    /// Zone-LC_inter states move to T′; Zone-LC_UA states (LC_UA
    /// already faulty, coverage in use) move to F.
    Strict,
}

/// How the Zone-LC_inter boundary is handled (DESIGN.md §4, ablation A1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ZoneInterBound {
    /// Zone-LC_inter tracks intermediate failures up to full
    /// exhaustion (`i ≤ M−1`, `j ≤ N−2`); if LC_UA then fails with no
    /// cover left, the chain moves to `F`. Physically consistent;
    /// the default.
    Extended,
    /// The paper's literal state bounds (`i ≤ M−2`, `j ≤ N−3`);
    /// further intermediate failures are ignored while LC_UA is
    /// healthy (optimistic).
    Saturate,
    /// The paper's literal `F` description: exhausting all
    /// intermediate PDLUs or PI units sends the chain to `F` even
    /// with LC_UA healthy (pessimistic).
    ToF,
}

/// Parameters of the DRA dependability model.
#[derive(Debug, Clone, Copy)]
pub struct DraParams {
    /// Total linecards `N ≥ 3`.
    pub n: usize,
    /// Same-protocol linecards (including LC_UA) `2 ≤ M ≤ N`.
    pub m: usize,
    /// Component failure rates.
    pub rates: FailureRates,
    /// Boundary semantics.
    pub bound: ZoneInterBound,
    /// T′ semantics for Zone-LC_UA states.
    pub tprime: TprimeSemantics,
    /// Repair rate μ (per hour) from every non-initial state back to
    /// `(0,0)`; `None` builds the reliability (no-repair) model.
    pub repair: Option<f64>,
}

impl DraParams {
    /// Paper defaults: rates from §5, `Extended` bounds, no repair.
    pub fn new(n: usize, m: usize) -> Self {
        DraParams {
            n,
            m,
            rates: FailureRates::PAPER,
            bound: ZoneInterBound::Extended,
            tprime: TprimeSemantics::Literal,
            repair: None,
        }
    }
}

/// A built DRA dependability model.
#[derive(Debug)]
pub struct DraModel {
    /// The underlying chain.
    pub chain: Ctmc,
    /// The initial `(0,0)` state.
    pub start: StateId,
    /// The service-loss state `F`.
    pub failed: StateId,
    /// The no-coverage-but-operational state `T'`.
    pub t_prime: StateId,
}

/// Build the DRA Markov model of Figure 5(b) (+ repair for Figure 7).
///
/// # Panics
/// Panics unless `n ≥ 3`, `2 ≤ m ≤ n`, and the rates are consistent.
// The transition loops index the pd/pi state vectors in parallel with
// arithmetic on the index itself (remaining-unit counts).
#[allow(clippy::needless_range_loop)]
pub fn dra_model(p: &DraParams) -> DraModel {
    assert!(p.n >= 3, "need N >= 3 (LC_UA, LC_out, one LC_inter)");
    assert!(p.m >= 2 && p.m <= p.n, "need 2 <= M <= N");
    assert!(p.rates.is_consistent(), "inconsistent failure rates");

    let (n, m) = (p.n, p.m);
    let l_pd = p.rates.inter_pdlu(); // intermediate PDLU (+BC)
    let l_pi = p.rates.inter_pi(); // intermediate PI units (+BC)
    let l_lpd = p.rates.pdlu; // LC_UA PDLU
    let l_lpi = p.rates.pi_units; // LC_UA PI units
    let l_e = p.rates.eib + p.rates.bus_controller; // EIB or LC_UA BC
    let l_lc = p.rates.lc; // whole LC_UA (used from T')

    // Zone-inter index bounds (inclusive).
    let (i_max, j_max) = match p.bound {
        ZoneInterBound::Extended => (m - 1, n - 2),
        ZoneInterBound::Saturate | ZoneInterBound::ToF => (m - 2, n - 3),
    };

    let mut b = CtmcBuilder::new();
    // Zone-inter grid.
    let mut inter = vec![vec![None; j_max + 1]; i_max + 1];
    for (i, row) in inter.iter_mut().enumerate() {
        for (j, slot) in row.iter_mut().enumerate() {
            *slot = Some(b.state(format!("({i},{j})")).expect("unique label"));
        }
    }
    let inter = |i: usize, j: usize| inter[i][j].expect("in range");
    // Zone-LC_UA chains.
    let pd: Vec<StateId> = (0..=m.saturating_sub(2))
        .map(|i| b.state(format!("{i}_PD")).expect("unique"))
        .collect();
    let pi: Vec<StateId> = (0..=n.saturating_sub(3))
        .map(|j| b.state(format!("{j}_PI")).expect("unique"))
        .collect();
    let t_prime = b.state("T'").expect("unique");
    let failed = b.state("F").expect("unique");

    // --- Zone-inter transitions -------------------------------------
    for i in 0..=i_max {
        for j in 0..=j_max {
            let s = inter(i, j);
            // Intermediate PDLU failures.
            let remaining_pd = (m - 1).saturating_sub(i) as f64;
            if remaining_pd > 0.0 {
                if i < i_max {
                    b.rate(s, inter(i + 1, j), remaining_pd * l_pd).unwrap();
                } else if p.bound == ZoneInterBound::ToF {
                    b.rate(s, failed, remaining_pd * l_pd).unwrap();
                }
                // Saturate: the transition is dropped at the bound.
            }
            // Intermediate PI failures.
            let remaining_pi = (n - 2).saturating_sub(j) as f64;
            if remaining_pi > 0.0 {
                if j < j_max {
                    b.rate(s, inter(i, j + 1), remaining_pi * l_pi).unwrap();
                } else if p.bound == ZoneInterBound::ToF {
                    b.rate(s, failed, remaining_pi * l_pi).unwrap();
                }
            }
            // LC_UA's PDLU fails: covered iff a same-protocol PDLU
            // remains (i ≤ m-2), else F.
            if i <= m - 2 {
                b.rate(s, pd[i], l_lpd).unwrap();
            } else {
                b.rate(s, failed, l_lpd).unwrap();
            }
            // LC_UA's PI units fail: covered iff some PI group remains.
            if j <= n - 3 {
                b.rate(s, pi[j], l_lpi).unwrap();
            } else {
                b.rate(s, failed, l_lpi).unwrap();
            }
            // EIB or LC_UA bus controller fails: coverage lost, fabric
            // still works.
            b.rate(s, t_prime, l_e).unwrap();
        }
    }

    // --- Zone-LC_UA transitions --------------------------------------
    // Where a covered LC_UA lands when the EIB/BC dies under it.
    let eib_loss_target = match p.tprime {
        TprimeSemantics::Literal => t_prime,
        TprimeSemantics::Strict => failed,
    };
    for i in 0..pd.len() {
        let remaining = (m - 1 - i) as f64;
        let next = if i + 1 < pd.len() { pd[i + 1] } else { failed };
        b.rate(pd[i], next, remaining * l_pd).unwrap();
        b.rate(pd[i], eib_loss_target, l_e).unwrap();
    }
    for j in 0..pi.len() {
        let remaining = (n - 2 - j) as f64;
        let next = if j + 1 < pi.len() { pi[j + 1] } else { failed };
        b.rate(pi[j], next, remaining * l_pi).unwrap();
        b.rate(pi[j], eib_loss_target, l_e).unwrap();
    }

    // --- T' ----------------------------------------------------------
    // No coverage possible: any LC_UA failure is terminal.
    b.rate(t_prime, failed, l_lc).unwrap();

    // --- Repair (availability variant) -------------------------------
    let start = inter(0, 0);
    if let Some(mu) = p.repair {
        assert!(mu > 0.0, "repair rate must be positive");
        for i in 0..=i_max {
            for j in 0..=j_max {
                if (i, j) != (0, 0) {
                    b.rate(inter(i, j), start, mu).unwrap();
                }
            }
        }
        for &s in pd.iter().chain(pi.iter()) {
            b.rate(s, start, mu).unwrap();
        }
        b.rate(t_prime, start, mu).unwrap();
        b.rate(failed, start, mu).unwrap();
    }

    let chain = b.build().expect("nonempty chain");
    DraModel {
        chain,
        start,
        failed,
        t_prime,
    }
}

/// A built BDR dependability model (Figure 5(a)): up → failed at
/// λ_LC, with optional repair.
#[derive(Debug)]
pub struct BdrModel {
    /// The underlying chain.
    pub chain: Ctmc,
    /// The operational state.
    pub start: StateId,
    /// The failed state.
    pub failed: StateId,
}

/// Build the BDR model (optionally with repair).
pub fn bdr_reliability_model(rates: &FailureRates, repair: Option<f64>) -> BdrModel {
    let mut b = CtmcBuilder::new();
    let up = b.state("up").expect("unique");
    let down = b.state("down").expect("unique");
    b.rate(up, down, rates.lc).unwrap();
    if let Some(mu) = repair {
        assert!(mu > 0.0);
        b.rate(down, up, mu).unwrap();
    }
    BdrModel {
        chain: b.build().expect("nonempty"),
        start: up,
        failed: down,
    }
}

/// Evaluate `R(t) = P(not in F)` at each time (hours), starting from
/// the model's initial state.
pub fn reliability_curve(chain: &Ctmc, start: StateId, failed: StateId, times: &[f64]) -> Vec<f64> {
    let pi0 = chain.point_mass(start).expect("valid start");
    let sols =
        dra_markov::transient::transient_many(chain, &pi0, times, TransientOptions::default())
            .expect("valid model and times");
    sols.iter().map(|pi| 1.0 - pi[failed.index()]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn curve(model: &DraModel, times: &[f64]) -> Vec<f64> {
        reliability_curve(&model.chain, model.start, model.failed, times)
    }

    #[test]
    fn state_counts_match_structure() {
        // Extended: M*(N-1) inter + (M-1) pd + (N-2) pi + T' + F.
        let p = DraParams::new(9, 4);
        let model = dra_model(&p);
        let expect = 4 * 8 + 3 + 7 + 2;
        assert_eq!(model.chain.n_states(), expect);

        let p = DraParams {
            bound: ZoneInterBound::Saturate,
            ..DraParams::new(9, 4)
        };
        let expect = 3 * 7 + 3 + 7 + 2;
        assert_eq!(dra_model(&p).chain.n_states(), expect);
    }

    #[test]
    fn minimal_configuration_builds() {
        // M=2, N=3: a single covering LC of each kind.
        for bound in [
            ZoneInterBound::Extended,
            ZoneInterBound::Saturate,
            ZoneInterBound::ToF,
        ] {
            let p = DraParams {
                bound,
                ..DraParams::new(3, 2)
            };
            let model = dra_model(&p);
            assert!(model.chain.n_states() >= 5);
            let r = curve(&model, &[10_000.0]);
            assert!(r[0] > 0.0 && r[0] <= 1.0);
        }
    }

    #[test]
    fn bdr_reliability_is_exponential() {
        let model = bdr_reliability_model(&FailureRates::PAPER, None);
        let r = reliability_curve(&model.chain, model.start, model.failed, &[40_000.0]);
        let expect = (-2e-5_f64 * 40_000.0).exp();
        assert!((r[0] - expect).abs() < 1e-10);
        // The paper's headline: below 0.5 by 40 000 h.
        assert!(r[0] < 0.5);
    }

    #[test]
    fn paper_anchor_dra_n9_m4_stays_near_one() {
        let model = dra_model(&DraParams::new(9, 4));
        let r = curve(&model, &[40_000.0]);
        assert!(
            r[0] > 0.97,
            "DRA N=9 M=4 should stay close to 1.0 at 40kh, got {}",
            r[0]
        );
    }

    #[test]
    fn dra_beats_bdr_everywhere() {
        let bdr = bdr_reliability_model(&FailureRates::PAPER, None);
        let times: Vec<f64> = (1..=6).map(|k| k as f64 * 10_000.0).collect();
        let r_bdr = reliability_curve(&bdr.chain, bdr.start, bdr.failed, &times);
        for (n, m) in [(3, 2), (5, 3), (9, 4), (9, 8)] {
            let model = dra_model(&DraParams::new(n, m));
            let r_dra = curve(&model, &times);
            for (i, &t) in times.iter().enumerate() {
                assert!(
                    r_dra[i] > r_bdr[i],
                    "DRA(N={n},M={m}) must beat BDR at t={t}: {} vs {}",
                    r_dra[i],
                    r_bdr[i]
                );
            }
        }
    }

    #[test]
    fn reliability_improves_with_n_and_m() {
        let times = [40_000.0];
        let r_n3 = curve(&dra_model(&DraParams::new(3, 2)), &times)[0];
        let r_n6 = curve(&dra_model(&DraParams::new(6, 2)), &times)[0];
        let r_n9 = curve(&dra_model(&DraParams::new(9, 2)), &times)[0];
        assert!(r_n3 < r_n6 && r_n6 < r_n9, "{r_n3} {r_n6} {r_n9}");

        let r_m4 = curve(&dra_model(&DraParams::new(9, 4)), &times)[0];
        let r_m8 = curve(&dra_model(&DraParams::new(9, 8)), &times)[0];
        assert!(r_m4 <= r_m8 + 1e-12);
        // Paper: gains shrink — M>4 values are very close to each other.
        assert!((r_m8 - r_m4) < 0.01, "diminishing returns in M");
    }

    #[test]
    fn pi_units_matter_more_than_pdlus() {
        // Paper: "the number of PI units has a greater impact on R(t)".
        let times = [40_000.0];
        // Adding one more N (PI cover) vs one more M (PDLU cover).
        let base = curve(&dra_model(&DraParams::new(5, 3)), &times)[0];
        let more_n = curve(&dra_model(&DraParams::new(6, 3)), &times)[0];
        let more_m = curve(&dra_model(&DraParams::new(5, 4)), &times)[0];
        assert!(
            more_n - base > more_m - base,
            "extra PI cover ({more_n}) should help more than extra PDLU cover ({more_m})"
        );
    }

    #[test]
    fn bound_semantics_order_pessimism() {
        // ToF <= Extended <= Saturate in reliability.
        let times = [50_000.0];
        let mk = |bound| {
            let p = DraParams {
                bound,
                ..DraParams::new(4, 2)
            };
            curve(&dra_model(&p), &times)[0]
        };
        let tof = mk(ZoneInterBound::ToF);
        let ext = mk(ZoneInterBound::Extended);
        let sat = mk(ZoneInterBound::Saturate);
        assert!(tof <= ext + 1e-12, "ToF {tof} vs Extended {ext}");
        assert!(ext <= sat + 1e-12, "Extended {ext} vs Saturate {sat}");
    }

    #[test]
    fn reliability_is_monotone_decreasing() {
        let model = dra_model(&DraParams::new(6, 3));
        let times: Vec<f64> = (0..=20).map(|k| k as f64 * 5_000.0).collect();
        let r = curve(&model, &times);
        assert_eq!(r[0], 1.0);
        for w in r.windows(2) {
            assert!(w[1] <= w[0] + 1e-12, "R(t) must not increase: {w:?}");
        }
    }

    #[test]
    fn generator_is_conservative() {
        let model = dra_model(&DraParams::new(7, 4));
        for s in model.chain.generator().row_sums() {
            assert!(s.abs() < 1e-15, "row sum {s}");
        }
        // F is the only absorbing state in the reliability model.
        assert_eq!(model.chain.absorbing_states(), vec![model.failed]);
    }

    #[test]
    fn mttf_exceeds_bdr() {
        let dra = dra_model(&DraParams::new(6, 3));
        let a = dra_markov::absorbing::analyze(&dra.chain).unwrap();
        let mttf_dra = a.mtta_from(dra.start).unwrap();
        let mttf_bdr = 1.0 / FailureRates::PAPER.lc;
        assert!(
            mttf_dra > 2.0 * mttf_bdr,
            "DRA MTTF {mttf_dra:.0} vs BDR {mttf_bdr:.0}"
        );
    }

    #[test]
    #[should_panic(expected = "N >= 3")]
    fn too_few_linecards_rejected() {
        dra_model(&DraParams::new(2, 2));
    }

    #[test]
    #[should_panic(expected = "2 <= M <= N")]
    fn m_larger_than_n_rejected() {
        dra_model(&DraParams::new(4, 5));
    }
}
