//! E1/E5 integration: the paper's Markov models exercised through the
//! whole stack — built in `dra-core`, solved by `dra-markov` on
//! `dra-linalg`, and cross-validated by three independent methods
//! (uniformization, RK45, Monte Carlo).

use dra::core::analysis::reliability::{
    dra_model, reliability_curve, DraParams, TprimeSemantics, ZoneInterBound,
};
use dra::core::montecarlo::{inflated_rates, run_dra_mc, McConfig, McMode};
use dra::markov::steady::{steady_state, SteadyMethod};
use dra::markov::transient::{transient, transient_rk45, OdeOptions, TransientOptions};

#[test]
fn model_generator_is_conservative_across_the_sweep() {
    for n in 3..=9 {
        for m in 2..=n.min(8) {
            let model = dra_model(&DraParams::new(n, m));
            for s in model.chain.generator().row_sums() {
                assert!(s.abs() < 1e-15, "N={n} M={m}: row sum {s}");
            }
            assert_eq!(
                model.chain.absorbing_states(),
                vec![model.failed],
                "N={n} M={m}: F must be the only absorbing state"
            );
        }
    }
}

#[test]
fn uniformization_and_rk45_agree_on_the_dra_model() {
    // Moderate horizon keeps RK45 affordable; both methods share no
    // code beyond the generator.
    let model = dra_model(&DraParams::new(5, 3));
    let pi0 = model.chain.point_mass(model.start).unwrap();
    let t = 2_000.0;
    let a = transient(&model.chain, &pi0, t, TransientOptions::default()).unwrap();
    let b = transient_rk45(&model.chain, &pi0, t, OdeOptions::default()).unwrap();
    for i in 0..a.len() {
        assert!(
            (a[i] - b[i]).abs() < 1e-7,
            "state {i}: uniformization {} vs RK45 {}",
            a[i],
            b[i]
        );
    }
}

#[test]
fn steady_state_methods_agree_on_the_availability_model() {
    let model = dra_model(&DraParams {
        repair: Some(1.0 / 3.0),
        ..DraParams::new(6, 3)
    });
    let lu = steady_state(&model.chain, SteadyMethod::DirectLu).unwrap();
    let gs = steady_state(&model.chain, SteadyMethod::GaussSeidel).unwrap();
    let pw = steady_state(&model.chain, SteadyMethod::Power).unwrap();
    for i in 0..lu.len() {
        assert!((lu[i] - gs[i]).abs() < 1e-9, "GS differs at {i}");
        assert!((lu[i] - pw[i]).abs() < 1e-7, "power differs at {i}");
    }
}

#[test]
fn monte_carlo_confirms_the_strict_markov_model() {
    let rates = inflated_rates(1000.0);
    let cfg = McConfig {
        n: 4,
        m: 2,
        rates,
        replications: 20_000,
        seed: 0x1A7E,
    };
    let mc = run_dra_mc(&cfg, McMode::Reliability { horizon_h: 30.0 });
    let params = DraParams {
        rates,
        tprime: TprimeSemantics::Strict,
        ..DraParams::new(4, 2)
    };
    let model = dra_model(&params);
    let markov = reliability_curve(&model.chain, model.start, model.failed, &[30.0])[0];
    assert!(
        (mc.mean - markov).abs() < 3.0 * mc.ci_half.max(0.005),
        "MC {} ± {} vs Markov {markov}",
        mc.mean,
        mc.ci_half
    );
}

#[test]
fn literal_semantics_dominate_strict() {
    // Literal T' forgets LC_UA failures after a bus failure, so it can
    // only look better.
    for (n, m) in [(3, 2), (6, 3), (9, 4)] {
        let lit = dra_model(&DraParams::new(n, m));
        let strict = dra_model(&DraParams {
            tprime: TprimeSemantics::Strict,
            ..DraParams::new(n, m)
        });
        for &t in &[20_000.0, 60_000.0] {
            let rl = reliability_curve(&lit.chain, lit.start, lit.failed, &[t])[0];
            let rs = reliability_curve(&strict.chain, strict.start, strict.failed, &[t])[0];
            assert!(rl >= rs - 1e-12, "N={n} M={m} t={t}: {rl} < {rs}");
        }
    }
}

#[test]
fn zone_bound_orderings_hold_across_configs() {
    for (n, m) in [(3, 2), (5, 2), (9, 4)] {
        let r_of = |bound| {
            let model = dra_model(&DraParams {
                bound,
                ..DraParams::new(n, m)
            });
            reliability_curve(&model.chain, model.start, model.failed, &[50_000.0])[0]
        };
        let tof = r_of(ZoneInterBound::ToF);
        let ext = r_of(ZoneInterBound::Extended);
        let sat = r_of(ZoneInterBound::Saturate);
        assert!(tof <= ext + 1e-12 && ext <= sat + 1e-12, "N={n} M={m}");
    }
}
