//! Fault-level Monte Carlo estimation of LC dependability — the
//! cross-check the paper's analysis-only evaluation lacked.
//!
//! Each replication simulates the exponential failure (and optional
//! repair) processes of exactly the entities the Figure-5 Markov
//! models track: LC_UA's PDLU and PI units, the `M−1` intermediate
//! PDLUs, the `N−2` intermediate PI-unit groups, and the EIB /
//! LC_UA-bus-controller pair. Serviceability uses the same rules as
//! `coverage::lc_serviceable_with`, specialized to the model's
//! assumptions (LC_UA fails at PDLU or PI units, not both; LC_out is
//! fault-free and excluded from the helper pool).
//!
//! At the paper's real failure rates the interesting probabilities are
//! 1e−9-ish and MC cannot resolve them in reasonable time; the
//! validation harness therefore compares MC and Markov *on inflated
//! rates*, where agreement exercises every code path of both.

use dra_des::random;
use dra_router::components::FailureRates;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Repair-time distribution for availability estimation. The paper
/// assumes a fixed repair time; its Markov model forces an
/// exponential. The MC can do either, quantifying the gap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RepairDist {
    /// Exponential with the given rate (matches the Markov model).
    #[default]
    Exponential,
    /// Fixed duration `1/μ` (the paper's stated assumption).
    Deterministic,
}

/// What to estimate.
#[derive(Debug, Clone, Copy)]
pub enum McMode {
    /// Probability the LC is still serviceable at `horizon_h` with no
    /// repair (one Bernoulli sample per replication).
    Reliability {
        /// Mission time in hours.
        horizon_h: f64,
    },
    /// Long-run fraction of time serviceable with mean repair time
    /// `1/mu` (time-weighted estimate per replication).
    Availability {
        /// Observation window in hours.
        horizon_h: f64,
        /// Repair rate (per hour); the mean repair time is `1/mu`.
        mu: f64,
        /// Repair-time distribution.
        repair: RepairDist,
    },
}

/// Monte Carlo configuration.
#[derive(Debug, Clone, Copy)]
pub struct McConfig {
    /// Total linecards `N ≥ 3`.
    pub n: usize,
    /// Same-protocol linecards `2 ≤ M ≤ N`.
    pub m: usize,
    /// Failure rates (inflate them to make MC converge).
    pub rates: FailureRates,
    /// Independent replications.
    pub replications: usize,
    /// RNG seed.
    pub seed: u64,
}

/// An estimate with a normal-approximation 95% confidence half-width.
#[derive(Debug, Clone, Copy)]
pub struct McEstimate {
    /// Point estimate.
    pub mean: f64,
    /// 95% CI half-width.
    pub ci_half: f64,
    /// Replications used.
    pub replications: usize,
    /// When **zero** adverse events were observed (every replication
    /// survived / saw no downtime), the normal-approximation CI
    /// degenerates to `1.0 ± 0.0`, which overstates certainty
    /// enormously. This carries the rule-of-three 95% upper bound on
    /// the adverse probability instead (`≈ 3/n`, the small-p limit of
    /// the exact Clopper–Pearson bound `1 − 0.05^{1/n}`). `None` when
    /// at least one adverse event was seen.
    pub zero_event_upper: Option<f64>,
}

/// Exact Clopper–Pearson 95% upper bound on an event probability after
/// observing **zero** events in `n` trials: `1 − 0.05^{1/n}` (≈ `3/n`
/// for large `n` — the "rule of three").
pub(crate) fn zero_event_upper_bound(n: usize) -> f64 {
    assert!(n > 0, "zero_event_upper_bound: no trials");
    1.0 - 0.05_f64.powf(1.0 / n as f64)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Entity {
    LcuaPdlu,
    LcuaPi,
    InterPdlu,
    InterPi,
    Eib,
    Repair,
}

/// State of one replication.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RepState {
    pub(crate) lcua_pdlu_failed: bool,
    pub(crate) lcua_pi_failed: bool,
    pub(crate) inter_pdlu_alive: usize,
    pub(crate) inter_pi_alive: usize,
    pub(crate) eib_ok: bool,
}

impl RepState {
    pub(crate) fn fresh(m: usize, n: usize) -> Self {
        RepState {
            lcua_pdlu_failed: false,
            lcua_pi_failed: false,
            inter_pdlu_alive: m - 1,
            inter_pi_alive: n - 2,
            eib_ok: true,
        }
    }

    /// The Markov model's serviceability predicate (Extended bounds).
    pub(crate) fn serviceable(&self) -> bool {
        if self.lcua_pdlu_failed {
            return self.eib_ok && self.inter_pdlu_alive > 0;
        }
        if self.lcua_pi_failed {
            return self.eib_ok && self.inter_pi_alive > 0;
        }
        true
    }
}

/// Fill `ents`/`rates` with the active transitions of `s` (parallel
/// stack buffers, so the rates feed [`random::weighted_index`]
/// directly) and return how many were written. Allocation-free: the
/// rare-event estimators call this billions of times.
pub(crate) fn active_rates_into(
    s: &RepState,
    n: usize,
    m: usize,
    r: &FailureRates,
    mu: Option<f64>,
    ents: &mut [Entity; 6],
    rates: &mut [f64; 6],
) -> usize {
    let mut k = 0;
    let mut push = |e: Entity, rate: f64| {
        ents[k] = e;
        rates[k] = rate;
        k += 1;
    };
    let lcua_intact = !s.lcua_pdlu_failed && !s.lcua_pi_failed;
    if lcua_intact {
        push(Entity::LcuaPdlu, r.pdlu);
        push(Entity::LcuaPi, r.pi_units);
    }
    if s.inter_pdlu_alive > 0 {
        push(
            Entity::InterPdlu,
            s.inter_pdlu_alive as f64 * r.inter_pdlu(),
        );
    }
    if s.inter_pi_alive > 0 {
        push(Entity::InterPi, s.inter_pi_alive as f64 * r.inter_pi());
    }
    if s.eib_ok {
        push(Entity::Eib, r.eib + r.bus_controller);
    }
    if let Some(mu) = mu {
        let degraded = !s.eib_ok
            || s.lcua_pdlu_failed
            || s.lcua_pi_failed
            || s.inter_pdlu_alive < m - 1
            || s.inter_pi_alive < n - 2;
        if degraded {
            push(Entity::Repair, mu);
        }
    }
    k
}

pub(crate) fn apply(s: &mut RepState, e: Entity, n: usize, m: usize) {
    match e {
        Entity::LcuaPdlu => s.lcua_pdlu_failed = true,
        Entity::LcuaPi => s.lcua_pi_failed = true,
        Entity::InterPdlu => s.inter_pdlu_alive -= 1,
        Entity::InterPi => s.inter_pi_alive -= 1,
        Entity::Eib => s.eib_ok = false,
        Entity::Repair => *s = RepState::fresh(m, n),
    }
}

/// Run the DRA Monte Carlo estimator.
pub fn run_dra_mc(cfg: &McConfig, mode: McMode) -> McEstimate {
    assert!(cfg.n >= 3 && cfg.m >= 2 && cfg.m <= cfg.n);
    assert!(cfg.replications >= 2);
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut acc = dra_des::stats::Welford::new();
    let mut adverse = 0usize;
    let mut ents = [Entity::Repair; 6];
    let mut rates = [0.0; 6];

    for _ in 0..cfg.replications {
        match mode {
            McMode::Reliability { horizon_h } => {
                let mut s = RepState::fresh(cfg.m, cfg.n);
                let mut t = 0.0;
                let survived = loop {
                    let k = active_rates_into(
                        &s, cfg.n, cfg.m, &cfg.rates, None, &mut ents, &mut rates,
                    );
                    let total: f64 = rates[..k].iter().sum();
                    if total == 0.0 {
                        break true;
                    }
                    t += random::exponential(&mut rng, total);
                    if t >= horizon_h {
                        break true;
                    }
                    let e = ents[random::weighted_index(&mut rng, &rates[..k], total)];
                    apply(&mut s, e, cfg.n, cfg.m);
                    if !s.serviceable() {
                        break false;
                    }
                };
                if !survived {
                    adverse += 1;
                }
                acc.push(if survived { 1.0 } else { 0.0 });
            }
            McMode::Availability {
                horizon_h,
                mu,
                repair,
            } => {
                let frac = match repair {
                    RepairDist::Exponential => {
                        availability_rep_exponential(&mut rng, cfg, horizon_h, mu)
                    }
                    RepairDist::Deterministic => {
                        availability_rep_deterministic(&mut rng, cfg, horizon_h, mu)
                    }
                };
                if frac < 1.0 {
                    adverse += 1;
                }
                acc.push(frac);
            }
        }
    }
    McEstimate {
        mean: acc.mean(),
        ci_half: acc.ci_half_width(1.96),
        replications: cfg.replications,
        zero_event_upper: (adverse == 0).then(|| zero_event_upper_bound(cfg.replications)),
    }
}

/// One availability replication with exponential repair (the repair
/// transition joins the Markov race).
fn availability_rep_exponential(
    rng: &mut SmallRng,
    cfg: &McConfig,
    horizon_h: f64,
    mu: f64,
) -> f64 {
    let mut s = RepState::fresh(cfg.m, cfg.n);
    let mut t = 0.0;
    let mut up_time = 0.0;
    let mut ents = [Entity::Repair; 6];
    let mut rates = [0.0; 6];
    while t < horizon_h {
        let k = active_rates_into(
            &s,
            cfg.n,
            cfg.m,
            &cfg.rates,
            Some(mu),
            &mut ents,
            &mut rates,
        );
        let total: f64 = rates[..k].iter().sum();
        let dt = if total == 0.0 {
            horizon_h - t
        } else {
            random::exponential(rng, total).min(horizon_h - t)
        };
        if s.serviceable() {
            up_time += dt;
        }
        t += dt;
        if t < horizon_h && total > 0.0 {
            let e = ents[random::weighted_index(rng, &rates[..k], total)];
            apply(&mut s, e, cfg.n, cfg.m);
        }
    }
    up_time / horizon_h
}

/// One availability replication with a fixed repair duration `1/mu`:
/// the repair clock is armed at the first failure and fires exactly
/// `1/mu` later, regardless of further failures (the hot swap replaces
/// everything that broke meanwhile).
fn availability_rep_deterministic(
    rng: &mut SmallRng,
    cfg: &McConfig,
    horizon_h: f64,
    mu: f64,
) -> f64 {
    let repair_time = 1.0 / mu;
    let mut s = RepState::fresh(cfg.m, cfg.n);
    let mut t = 0.0;
    let mut up_time = 0.0;
    let mut repair_at: Option<f64> = None;
    let mut ents = [Entity::Repair; 6];
    let mut rates = [0.0; 6];
    while t < horizon_h {
        // Failures only: the repair clock is not part of the race.
        let k = active_rates_into(&s, cfg.n, cfg.m, &cfg.rates, None, &mut ents, &mut rates);
        let total: f64 = rates[..k].iter().sum();
        let dt_fail = if total == 0.0 {
            f64::INFINITY
        } else {
            random::exponential(rng, total)
        };
        let next_fail = t + dt_fail;
        let next_event = repair_at.unwrap_or(f64::INFINITY).min(next_fail);
        let step_end = next_event.min(horizon_h);
        if s.serviceable() {
            up_time += step_end - t;
        }
        t = step_end;
        if t >= horizon_h {
            break;
        }
        if repair_at == Some(t) {
            s = RepState::fresh(cfg.m, cfg.n);
            repair_at = None;
        } else {
            let e = ents[random::weighted_index(rng, &rates[..k], total)];
            apply(&mut s, e, cfg.n, cfg.m);
            if repair_at.is_none() {
                repair_at = Some(t + repair_time);
            }
        }
    }
    up_time / horizon_h
}

/// Run the BDR Monte Carlo estimator (whole-LC failures at λ_LC).
pub fn run_bdr_mc(cfg: &McConfig, mode: McMode) -> McEstimate {
    assert!(cfg.replications >= 2);
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut acc = dra_des::stats::Welford::new();
    let mut adverse = 0usize;
    let lambda = cfg.rates.lc;

    for _ in 0..cfg.replications {
        match mode {
            McMode::Reliability { horizon_h } => {
                let ttf = random::exponential(&mut rng, lambda);
                if ttf < horizon_h {
                    adverse += 1;
                }
                acc.push(if ttf >= horizon_h { 1.0 } else { 0.0 });
            }
            McMode::Availability {
                horizon_h,
                mu,
                repair,
            } => {
                let mut t = 0.0;
                let mut up_time = 0.0;
                let mut up = true;
                while t < horizon_h {
                    let raw_dt = if up {
                        random::exponential(&mut rng, lambda)
                    } else {
                        match repair {
                            RepairDist::Exponential => random::exponential(&mut rng, mu),
                            RepairDist::Deterministic => 1.0 / mu,
                        }
                    };
                    let dt = raw_dt.min(horizon_h - t);
                    if up {
                        up_time += dt;
                    }
                    t += dt;
                    if t < horizon_h {
                        up = !up;
                    }
                }
                if up_time < horizon_h {
                    adverse += 1;
                }
                acc.push(up_time / horizon_h);
            }
        }
    }
    McEstimate {
        mean: acc.mean(),
        ci_half: acc.ci_half_width(1.96),
        replications: cfg.replications,
        zero_event_upper: (adverse == 0).then(|| zero_event_upper_bound(cfg.replications)),
    }
}

/// Inflate the paper's rates by `factor` (used to make MC converge
/// while preserving all rate *ratios*, so the Markov/MC comparison
/// still exercises the same structure).
pub fn inflated_rates(factor: f64) -> FailureRates {
    let r = FailureRates::PAPER;
    FailureRates {
        lc: r.lc * factor,
        pdlu: r.pdlu * factor,
        pi_units: r.pi_units * factor,
        bus_controller: r.bus_controller * factor,
        eib: r.eib * factor,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::availability::dra_availability;
    use crate::analysis::reliability::{dra_model, reliability_curve, DraParams, TprimeSemantics};

    fn cfg(n: usize, m: usize, factor: f64, reps: usize) -> McConfig {
        McConfig {
            n,
            m,
            rates: inflated_rates(factor),
            replications: reps,
            seed: 0xDA117,
        }
    }

    #[test]
    fn bdr_reliability_matches_closed_form() {
        let c = cfg(3, 2, 1000.0, 20_000);
        let horizon = 40.0; // hours at x1000 rates ~ paper's 40kh
        let est = run_bdr_mc(&c, McMode::Reliability { horizon_h: horizon });
        let expect = (-c.rates.lc * horizon).exp();
        assert!(
            (est.mean - expect).abs() < 3.0 * est.ci_half.max(0.01),
            "MC {} ± {} vs closed form {expect}",
            est.mean,
            est.ci_half
        );
    }

    #[test]
    fn bdr_availability_matches_closed_form() {
        let c = cfg(3, 2, 1000.0, 200);
        let mu = 1.0 / 3.0;
        let est = run_bdr_mc(
            &c,
            McMode::Availability {
                horizon_h: 5_000.0,
                mu,
                repair: RepairDist::Exponential,
            },
        );
        let expect = mu / (mu + c.rates.lc);
        assert!(
            (est.mean - expect).abs() < 0.01,
            "MC {} vs closed form {expect}",
            est.mean
        );
    }

    #[test]
    fn dra_reliability_agrees_with_markov_at_inflated_rates() {
        let factor = 1000.0;
        let c = cfg(5, 3, factor, 30_000);
        let horizon = 40.0;
        let est = run_dra_mc(&c, McMode::Reliability { horizon_h: horizon });

        // The MC implements the physically-strict T' semantics.
        let params = DraParams {
            rates: c.rates,
            tprime: TprimeSemantics::Strict,
            ..DraParams::new(5, 3)
        };
        let model = dra_model(&params);
        let markov = reliability_curve(&model.chain, model.start, model.failed, &[horizon])[0];
        assert!(
            (est.mean - markov).abs() < 3.0 * est.ci_half.max(0.005),
            "MC {} ± {} vs Markov {markov}",
            est.mean,
            est.ci_half
        );
    }

    #[test]
    fn dra_availability_agrees_with_markov_at_inflated_rates() {
        let factor = 2000.0;
        let c = cfg(4, 2, factor, 60);
        let mu = 0.5;
        let est = run_dra_mc(
            &c,
            McMode::Availability {
                horizon_h: 20_000.0,
                mu,
                repair: RepairDist::Exponential,
            },
        );
        let params = DraParams {
            rates: c.rates,
            tprime: TprimeSemantics::Strict,
            ..DraParams::new(4, 2)
        };
        let markov = dra_availability(&params, mu);
        assert!(
            (est.mean - markov).abs() < 0.005,
            "MC {} ± {} vs Markov {markov}",
            est.mean,
            est.ci_half
        );
    }

    #[test]
    fn deterministic_repair_bdr_matches_renewal_theory() {
        // Alternating renewal: A = MTTF / (MTTF + MTTR) for any repair
        // distribution — fixed repair must land on the same value.
        let c = cfg(3, 2, 1000.0, 200);
        let mu = 1.0 / 3.0;
        let est = run_bdr_mc(
            &c,
            McMode::Availability {
                horizon_h: 5_000.0,
                mu,
                repair: RepairDist::Deterministic,
            },
        );
        let expect = (1.0 / c.rates.lc) / (1.0 / c.rates.lc + 1.0 / mu);
        assert!(
            (est.mean - expect).abs() < 0.01,
            "MC {} vs renewal theory {expect}",
            est.mean
        );
    }

    #[test]
    fn deterministic_repair_dra_matches_erlang_limit() {
        // Fixed-repair MC should sit near the Erlang-k availability as
        // k grows (both approximate the deterministic repair).
        use crate::analysis::availability::dra_availability_erlang;
        let factor = 2000.0;
        let c = cfg(4, 2, factor, 80);
        let mu = 0.5;
        let est = run_dra_mc(
            &c,
            McMode::Availability {
                horizon_h: 20_000.0,
                mu,
                repair: RepairDist::Deterministic,
            },
        );
        let params = DraParams {
            rates: c.rates,
            tprime: TprimeSemantics::Strict,
            ..DraParams::new(4, 2)
        };
        let erlang16 = dra_availability_erlang(&params, mu, 16);
        assert!(
            (est.mean - erlang16).abs() < 0.01,
            "MC(det) {} vs Erlang-16 {erlang16}",
            est.mean
        );
    }

    #[test]
    fn dra_mc_beats_bdr_mc() {
        let c = cfg(6, 3, 1000.0, 10_000);
        let horizon = 40.0;
        let dra = run_dra_mc(&c, McMode::Reliability { horizon_h: horizon });
        let bdr = run_bdr_mc(&c, McMode::Reliability { horizon_h: horizon });
        assert!(dra.mean > bdr.mean, "DRA {} vs BDR {}", dra.mean, bdr.mean);
    }

    #[test]
    fn determinism_by_seed() {
        let c = cfg(4, 2, 500.0, 500);
        let a = run_dra_mc(&c, McMode::Reliability { horizon_h: 50.0 });
        let b = run_dra_mc(&c, McMode::Reliability { horizon_h: 50.0 });
        assert_eq!(a.mean, b.mean);
        let mut c2 = c;
        c2.seed += 1;
        let d = run_dra_mc(&c2, McMode::Reliability { horizon_h: 50.0 });
        assert_ne!(a.mean, d.mean);
    }

    #[test]
    fn zero_event_runs_report_rule_of_three_bound() {
        // Paper rates over one hour: no replication can plausibly fail,
        // so the estimate must carry the Clopper–Pearson zero-event
        // upper bound rather than a degenerate 1.0 ± 0.0.
        let c = McConfig {
            n: 5,
            m: 3,
            rates: FailureRates::PAPER,
            replications: 1000,
            seed: 1,
        };
        let est = run_dra_mc(&c, McMode::Reliability { horizon_h: 1.0 });
        assert_eq!(est.mean, 1.0);
        assert_eq!(est.ci_half, 0.0);
        let ub = est
            .zero_event_upper
            .expect("zero events must set the bound");
        assert!((ub - zero_event_upper_bound(1000)).abs() < 1e-15);
        // Rule-of-three limit: ≈ 3/n.
        assert!((ub - 3.0 / 1000.0).abs() < 3e-4, "bound {ub}");

        // Availability mode at paper rates over a short window: same.
        let est_a = run_dra_mc(
            &c,
            McMode::Availability {
                horizon_h: 10.0,
                mu: 1.0 / 3.0,
                repair: RepairDist::Exponential,
            },
        );
        assert!(est_a.zero_event_upper.is_some());

        // With events observed the bound is absent and the CI is live.
        let c2 = cfg(3, 2, 1000.0, 5_000);
        let est2 = run_dra_mc(&c2, McMode::Reliability { horizon_h: 40.0 });
        assert!(est2.zero_event_upper.is_none());
        assert!(est2.ci_half > 0.0);
    }

    #[test]
    fn inflated_rates_preserve_consistency() {
        let r = inflated_rates(1234.0);
        assert!(r.is_consistent());
        assert!((r.lc / FailureRates::PAPER.lc - 1234.0).abs() < 1e-9);
    }
}
