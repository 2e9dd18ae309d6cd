//! Rare-event acceleration for availability estimation at *paper*
//! failure rates.
//!
//! The paper's headline numbers are five-to-nine-nines availabilities:
//! unavailabilities of 1e−5 … 1e−9. Brute-force Monte Carlo needs on
//! the order of `1/U` observations to see a single down period, which
//! at those rates means ~1e9 simulated hours per data point — the
//! reason [`crate::montecarlo`] only validates against the Markov
//! models at inflated rates. This module makes the *real* rates
//! tractable with three estimators sharing one regenerative skeleton:
//!
//! * [`RareMethod::BruteForce`] — the honest baseline: regenerative
//!   cycles over the embedded jump chain with **conditional holding
//!   times** (each visit contributes its exact expected sojourn
//!   `1/Λ(s)` instead of a sampled one — free variance reduction, and
//!   it makes the estimator purely discrete).
//! * [`RareMethod::FailureBiasing`] — importance sampling by *balanced
//!   failure biasing*: the embedded jump probabilities are biased so
//!   failure transitions jointly receive probability `bias` (split
//!   equally) whenever a repair competes, and the estimate is corrected
//!   with the exact per-trajectory likelihood ratio. Biasing stops once
//!   the cycle has hit the down set, so cycle termination stays
//!   geometric.
//! * [`RareMethod::Splitting`] — RESTART-style multilevel importance
//!   splitting: trajectories that cross an importance level upward are
//!   cloned `clones` ways, each clone carrying `1/clones` of the parent
//!   weight and an independently derived SplitMix64 RNG seed, so the
//!   sum over the trajectory tree is an unbiased cycle sample and the
//!   whole tree is reproducible from the cycle seed alone.
//!
//! All three estimate steady-state unavailability as the regenerative
//! ratio `U = E[D]/E[T]` (cycle downtime over cycle length, cycles
//! delimited by repairs returning the system to the fresh state) with a
//! covariance-aware delta-method CI ([`dra_des::stats::Welford2`]), and
//! MTTF as `E[min(T_down, T_cycle)]/P(down before cycle end)`.
//!
//! The **level function** for splitting is not the raw failed-component
//! count but the number of failures *toward system down*: `2 − (minimum
//! additional failures needed to lose serviceability)`. Failures of
//! intermediate units that leave the LC_UA two failures from down do
//! not raise the level; an LC_UA-unit or EIB failure does. The level is
//! monotone along failure-only paths (repair ends the cycle), so
//! first-crossing cloning is exact — no re-crossing bookkeeping.
//!
//! Verification is built in: [`markov_oracle`] erects the exact CTMC
//! over the identical state space (same `active_rates_into`/`apply` code
//! the simulators step) and solves it with `dra-markov`, giving the ground
//! truth the estimators must match within their reported CIs on small
//! configurations.

use crate::montecarlo::{active_rates_into, apply, zero_event_upper_bound, Entity, RepState};
use dra_des::random::weighted_index;
use dra_markov::{oracle, CtmcBuilder};
use dra_router::components::FailureRates;
use dra_telemetry::lifecycle::splitmix64;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Configuration shared by every rare-event estimator.
#[derive(Debug, Clone, Copy)]
pub struct RareConfig {
    /// Total linecards `N ≥ 3`.
    pub n: usize,
    /// Same-protocol linecards `2 ≤ M ≤ N`.
    pub m: usize,
    /// Failure rates — the point of this module is that these can be
    /// the *paper's* rates, uninflated.
    pub rates: FailureRates,
    /// Repair rate (per hour); repairs are exponential and return the
    /// system to the fresh state, delimiting regenerative cycles.
    pub mu: f64,
    /// Regenerative cycles to simulate (root trajectories, for
    /// splitting).
    pub cycles: usize,
    /// RNG seed.
    pub seed: u64,
}

/// Which estimator to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RareMethod {
    /// Unbiased regenerative cycles (conditional holding times only).
    BruteForce,
    /// RESTART-style multilevel splitting with this many clones per
    /// upward level crossing.
    Splitting {
        /// Clones per first upward crossing of a splitting level.
        clones: u32,
    },
    /// Balanced failure biasing with total failure probability `bias`
    /// whenever a repair transition competes.
    FailureBiasing {
        /// Embedded probability mass given to failures (0 < bias < 1).
        bias: f64,
    },
}

impl RareMethod {
    /// Stable identifier used in artifacts and bench rows.
    pub fn name(&self) -> &'static str {
        match self {
            RareMethod::BruteForce => "brute-force",
            RareMethod::Splitting { .. } => "splitting",
            RareMethod::FailureBiasing { .. } => "failure-biasing",
        }
    }
}

/// The result of a rare-event estimation run.
#[derive(Debug, Clone, Copy)]
pub struct RareEstimate {
    /// Steady-state unavailability point estimate `E[D]/E[T]`.
    pub unavailability: f64,
    /// 95% delta-method half-width on the unavailability.
    pub ci_half: f64,
    /// Mean time to failure (hours): mean time until the first down
    /// event, `E[min(T_down, T_cycle)]/P(down in cycle)`. Infinite when
    /// no down event was observed.
    pub mttf_h: f64,
    /// 95% delta-method half-width on the MTTF (NaN when infinite).
    pub mttf_ci_half: f64,
    /// Weighted probability that a cycle reaches the down set — the
    /// rarity the estimator had to overcome.
    pub gamma: f64,
    /// Mean cycle length in hours (the ratio denominator).
    pub mean_cycle_h: f64,
    /// Cycles simulated.
    pub cycles: usize,
    /// Total jump-chain transitions executed, across all clones — the
    /// honest work unit for cross-estimator comparisons.
    pub jumps: u64,
    /// When **zero** down events were observed: a conservative 95%
    /// upper bound on the unavailability from the Clopper–Pearson
    /// zero-event bound on `gamma` (`U ≤ bound(γ)·(1/μ)/E[T]`, using
    /// the fact that a down period ends exactly at the exponential
    /// repair, so its mean duration is `1/μ`). `None` when at least one
    /// down event was seen.
    pub zero_event_upper: Option<f64>,
}

impl RareEstimate {
    /// Relative CI half-width (`ci_half / unavailability`); infinite
    /// when nothing was observed.
    pub fn rel_ci(&self) -> f64 {
        if self.unavailability > 0.0 {
            self.ci_half / self.unavailability
        } else {
            f64::INFINITY
        }
    }

    /// Conservative upper bound on the unavailability: CI upper edge,
    /// or the zero-event bound when no down event was seen.
    pub fn upper_bound(&self) -> f64 {
        match self.zero_event_upper {
            Some(u) => u,
            None => self.unavailability + self.ci_half,
        }
    }
}

/// The splitting level: `2 − (minimum additional component failures
/// until the system is down)`, clamped to the down level.
///
/// * level 2 — down (not serviceable);
/// * level 1 — one failure from down: an LC_UA unit is already failed,
///   or the EIB is down, or a helper pool is exhausted;
/// * level 0 — everything else (at least two failures from down).
///
/// Monotone nondecreasing along failure transitions; only the repair
/// (which ends the cycle) resets it.
pub(crate) fn down_level(s: &RepState) -> u32 {
    if !s.serviceable() {
        return 2;
    }
    let one_away = s.lcua_pdlu_failed
        || s.lcua_pi_failed
        || !s.eib_ok
        || s.inter_pdlu_alive == 0
        || s.inter_pi_alive == 0;
    if one_away {
        1
    } else {
        0
    }
}

/// Derive an independent child seed from a parent trajectory seed, the
/// level being crossed, and the clone index — so every clone's RNG
/// stream is reproducible from the cycle seed alone, independent of
/// traversal order.
fn derive_child_seed(parent_seed: u64, level: u32, clone_idx: u32) -> u64 {
    let mut s = parent_seed ^ 0xC10E_5EED_0000_0000u64;
    let _ = splitmix64(&mut s);
    s ^= (level as u64) << 32 | clone_idx as u64;
    splitmix64(&mut s)
}

/// Per-cycle accumulator: everything the ratio estimators need.
#[derive(Debug, Clone, Copy, Default)]
struct CycleTotals {
    /// Weighted downtime.
    d: f64,
    /// Weighted cycle length.
    t: f64,
    /// Weighted time before the first down event (= cycle length when
    /// the cycle never goes down).
    a: f64,
    /// Weighted indicator/mass of reaching the down set.
    g: f64,
    /// Jump-chain transitions executed.
    jumps: u64,
}

struct Accumulators {
    /// (downtime, cycle length) pairs for the unavailability ratio.
    ut: dra_des::stats::Welford2,
    /// (pre-down time, down mass) pairs for the MTTF ratio.
    mttf: dra_des::stats::Welford2,
    jumps: u64,
    down_cycles: usize,
}

impl Accumulators {
    fn new() -> Self {
        Accumulators {
            ut: dra_des::stats::Welford2::new(),
            mttf: dra_des::stats::Welford2::new(),
            jumps: 0,
            down_cycles: 0,
        }
    }

    fn push(&mut self, c: &CycleTotals) {
        self.ut.push(c.d, c.t);
        self.mttf.push(c.a, c.g);
        self.jumps += c.jumps;
        if c.g > 0.0 {
            self.down_cycles += 1;
        }
    }

    fn finish(&self, cfg: &RareConfig) -> RareEstimate {
        let u = self.ut.ratio();
        let gamma = self.mttf.mean_y();
        let (mttf_h, mttf_ci_half) = if gamma > 0.0 {
            // MTTF ratio is E[a]/E[g]: x = pre-down time, y = down mass.
            (self.mttf.ratio(), self.mttf.ratio_ci_half(1.96))
        } else {
            (f64::INFINITY, f64::NAN)
        };
        let zero_event_upper = (self.down_cycles == 0).then(|| {
            // A down period ends exactly at the exponential repair, so
            // its mean duration is 1/μ; bound γ by the zero-event
            // Clopper–Pearson bound and propagate through the ratio.
            zero_event_upper_bound(self.ut.count() as usize) / cfg.mu / self.ut.mean_y()
        });
        RareEstimate {
            unavailability: u,
            ci_half: self.ut.ratio_ci_half(1.96),
            mttf_h,
            mttf_ci_half,
            gamma,
            mean_cycle_h: self.ut.mean_y(),
            cycles: self.ut.count() as usize,
            jumps: self.jumps,
            zero_event_upper,
        }
    }
}

/// Safety valve: no legitimate cycle in this model takes anywhere near
/// this many jumps (repair competes at every degraded state).
const MAX_JUMPS_PER_CYCLE: u64 = 100_000_000;

/// One brute-force or failure-biased cycle over the embedded jump
/// chain. `bias = None` is the unbiased baseline; `Some(b)` applies
/// balanced failure biasing with likelihood-ratio correction until the
/// first down hit.
fn biased_cycle(rng: &mut SmallRng, cfg: &RareConfig, bias: Option<f64>) -> CycleTotals {
    let mut s = RepState::fresh(cfg.m, cfg.n);
    let mut c = CycleTotals::default();
    let mut w = 1.0f64;
    let mut down_seen = false;
    let mut ents = [Entity::Repair; 6];
    let mut rates = [0.0f64; 6];
    let mut q = [0.0f64; 6];
    loop {
        let k = active_rates_into(
            &s,
            cfg.n,
            cfg.m,
            &cfg.rates,
            Some(cfg.mu),
            &mut ents,
            &mut rates,
        );
        debug_assert!(k > 0, "the repairable model has no absorbing state");
        let total: f64 = rates[..k].iter().sum();
        // Conditional holding time: contribute the exact expectation.
        let sojourn = w / total;
        c.t += sojourn;
        if down_seen {
            c.d += sojourn;
        } else {
            c.a += sojourn;
        }
        // Proposal distribution for the next jump.
        let repair_at = ents[..k].iter().position(|&e| e == Entity::Repair);
        let biased = match (bias, repair_at, down_seen) {
            (Some(b), Some(rep), false) if k > 1 => {
                let per_failure = b / (k - 1) as f64;
                for (i, slot) in q[..k].iter_mut().enumerate() {
                    *slot = if i == rep { 1.0 - b } else { per_failure };
                }
                true
            }
            _ => false,
        };
        let idx = if biased {
            let idx = weighted_index(rng, &q[..k], 1.0);
            // Exact per-step likelihood ratio: true embedded probability
            // over proposal probability.
            w *= (rates[idx] / total) / q[idx];
            idx
        } else {
            weighted_index(rng, &rates[..k], total)
        };
        c.jumps += 1;
        assert!(c.jumps < MAX_JUMPS_PER_CYCLE, "runaway cycle");
        let e = ents[idx];
        if e == Entity::Repair {
            return c;
        }
        apply(&mut s, e, cfg.n, cfg.m);
        if !down_seen && !s.serviceable() {
            down_seen = true;
            c.g += w;
        }
    }
}

/// A pending trajectory on the splitting DFS stack.
struct Traj {
    s: RepState,
    w: f64,
    seed: u64,
    max_level: u32,
    down_seen: bool,
}

/// One splitting cycle: a DFS over the clone tree rooted at the fresh
/// state. Every trajectory that first crosses a level upward (below the
/// down level) is replaced by `clones` continuations at `w/clones`
/// each; the parent keeps one slot and clones get SplitMix64-derived
/// seeds, so the whole tree is a deterministic function of
/// `cycle_seed`.
fn splitting_cycle(cfg: &RareConfig, clones: u32, cycle_seed: u64) -> CycleTotals {
    let mut c = CycleTotals::default();
    let mut ents = [Entity::Repair; 6];
    let mut rates = [0.0f64; 6];
    let mut stack: Vec<Traj> = vec![Traj {
        s: RepState::fresh(cfg.m, cfg.n),
        w: 1.0,
        seed: cycle_seed,
        max_level: 0,
        down_seen: false,
    }];
    while let Some(mut traj) = stack.pop() {
        let mut rng = SmallRng::seed_from_u64(traj.seed);
        loop {
            let k = active_rates_into(
                &traj.s,
                cfg.n,
                cfg.m,
                &cfg.rates,
                Some(cfg.mu),
                &mut ents,
                &mut rates,
            );
            let total: f64 = rates[..k].iter().sum();
            let sojourn = traj.w / total;
            c.t += sojourn;
            if traj.down_seen {
                c.d += sojourn;
            } else {
                c.a += sojourn;
            }
            let idx = weighted_index(&mut rng, &rates[..k], total);
            c.jumps += 1;
            assert!(c.jumps < MAX_JUMPS_PER_CYCLE, "runaway splitting cycle");
            let e = ents[idx];
            if e == Entity::Repair {
                break; // this trajectory's cycle ends
            }
            apply(&mut traj.s, e, cfg.n, cfg.m);
            let level = down_level(&traj.s);
            if level == 2 {
                if !traj.down_seen {
                    traj.down_seen = true;
                    c.g += traj.w;
                }
            } else if level > traj.max_level {
                // First upward crossing of a splitting level: clone.
                traj.max_level = level;
                traj.w /= clones as f64;
                for clone_idx in 1..clones {
                    stack.push(Traj {
                        s: traj.s,
                        w: traj.w,
                        seed: derive_child_seed(traj.seed, level, clone_idx),
                        max_level: level,
                        down_seen: false,
                    });
                }
            }
        }
    }
    c
}

/// Run a rare-event estimator.
///
/// # Panics
/// Panics on degenerate configurations: `n < 3`, `m` outside `2..=n`,
/// non-positive `mu`, fewer than 2 cycles, `bias` outside `(0, 1)`, or
/// zero clones.
pub fn estimate(cfg: &RareConfig, method: RareMethod) -> RareEstimate {
    assert!(cfg.n >= 3 && cfg.m >= 2 && cfg.m <= cfg.n, "bad (n, m)");
    assert!(cfg.mu > 0.0, "bad mu");
    assert!(cfg.cycles >= 2, "need at least two cycles for a CI");
    let mut acc = Accumulators::new();
    match method {
        RareMethod::BruteForce => {
            let mut rng = SmallRng::seed_from_u64(cfg.seed);
            for _ in 0..cfg.cycles {
                let c = biased_cycle(&mut rng, cfg, None);
                acc.push(&c);
            }
        }
        RareMethod::FailureBiasing { bias } => {
            assert!(bias > 0.0 && bias < 1.0, "bias must be in (0, 1)");
            let mut rng = SmallRng::seed_from_u64(cfg.seed);
            for _ in 0..cfg.cycles {
                let c = biased_cycle(&mut rng, cfg, Some(bias));
                acc.push(&c);
            }
        }
        RareMethod::Splitting { clones } => {
            assert!(clones >= 1, "need at least one clone");
            let mut seed_state = cfg.seed ^ 0x5711_7711_0000_0000;
            for _ in 0..cfg.cycles {
                let cycle_seed = splitmix64(&mut seed_state);
                let c = splitting_cycle(cfg, clones, cycle_seed);
                acc.push(&c);
            }
        }
    }
    acc.finish(cfg)
}

/// Exact ground truth from the CTMC over the *identical* state space
/// the estimators walk.
#[derive(Debug, Clone, Copy)]
pub struct RareOracle {
    /// Exact steady-state unavailability.
    pub unavailability: f64,
    /// Exact mean time to first down event from the fresh state.
    pub mttf_h: f64,
    /// Number of reachable states in the exact model.
    pub states: usize,
}

/// Build the exact CTMC by breadth-first enumeration of the reachable
/// repairable-model state space — driven by the *same*
/// `active_rates_into`/`apply` code the estimators step, so the oracle and the simulation cannot
/// drift apart — and solve it with `dra-markov`.
///
/// State counts stay small (≈ `3·m·(n−1)·2`), so dense LU is instant
/// even for the 16-card configurations.
pub fn markov_oracle(n: usize, m: usize, rates: &FailureRates, mu: f64) -> RareOracle {
    assert!(n >= 3 && m >= 2 && m <= n, "bad (n, m)");
    let fresh = RepState::fresh(m, n);
    let mut states = vec![fresh];
    let mut edges: Vec<(usize, usize, f64)> = Vec::new();
    let mut ents = [Entity::Repair; 6];
    let mut out = [0.0f64; 6];
    let mut i = 0;
    while i < states.len() {
        let s = states[i];
        let k = active_rates_into(&s, n, m, rates, Some(mu), &mut ents, &mut out);
        for (&e, &r) in ents[..k].iter().zip(&out[..k]) {
            let mut target = s;
            apply(&mut target, e, n, m);
            let j = match states.iter().position(|&t| t == target) {
                Some(j) => j,
                None => {
                    states.push(target);
                    states.len() - 1
                }
            };
            edges.push((i, j, r));
        }
        i += 1;
    }
    let mut b = CtmcBuilder::new();
    let ids: Vec<_> = states
        .iter()
        .enumerate()
        .map(|(idx, s)| {
            b.state(format!(
                "s{idx}:pdlu{}pi{}hp{}hi{}eib{}",
                s.lcua_pdlu_failed as u8,
                s.lcua_pi_failed as u8,
                s.inter_pdlu_alive,
                s.inter_pi_alive,
                s.eib_ok as u8
            ))
            .expect("unique labels")
        })
        .collect();
    for (from, to, r) in edges {
        b.rate(ids[from], ids[to], r).expect("valid rate");
    }
    let chain = b.build().expect("valid chain");
    let down: Vec<_> = states
        .iter()
        .zip(&ids)
        .filter(|(s, _)| !s.serviceable())
        .map(|(_, &id)| id)
        .collect();
    let unavailability =
        oracle::steady_probability(&chain, &down).expect("ergodic repairable chain");
    let mttf_h = oracle::mean_hitting_time(&chain, ids[0], &down).expect("down reachable");
    RareOracle {
        unavailability,
        mttf_h,
        states: states.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::availability::dra_availability;
    use crate::analysis::reliability::{DraParams, TprimeSemantics};
    use crate::montecarlo::inflated_rates;

    fn cfg(n: usize, m: usize, rates: FailureRates, cycles: usize, seed: u64) -> RareConfig {
        RareConfig {
            n,
            m,
            rates,
            mu: 1.0 / 3.0,
            cycles,
            seed,
        }
    }

    #[test]
    fn oracle_matches_lumped_availability_model() {
        // The component-level CTMC built here must lump exactly onto
        // the paper's Figure-5 availability model with strict T'
        // semantics — the rate identity λ_LC = λ_PDLU + λ_PI makes the
        // aggregation exact.
        for &(n, m) in &[(3usize, 2usize), (5, 3), (9, 4)] {
            let mu = 1.0 / 3.0;
            let o = markov_oracle(n, m, &FailureRates::PAPER, mu);
            let params = DraParams {
                rates: FailureRates::PAPER,
                tprime: TprimeSemantics::Strict,
                ..DraParams::new(n, m)
            };
            let a = dra_availability(&params, mu);
            let rel = (o.unavailability - (1.0 - a)).abs() / (1.0 - a);
            assert!(
                rel < 1e-6,
                "(n={n}, m={m}): oracle U {} vs lumped {}",
                o.unavailability,
                1.0 - a
            );
        }
    }

    #[test]
    fn brute_force_agrees_with_oracle_at_inflated_rates() {
        let rates = inflated_rates(1000.0);
        let c = cfg(3, 2, rates, 40_000, 0xB0B);
        let est = estimate(&c, RareMethod::BruteForce);
        let o = markov_oracle(3, 2, &rates, c.mu);
        assert!(
            (est.unavailability - o.unavailability).abs() <= est.ci_half,
            "brute {} ± {} vs exact {}",
            est.unavailability,
            est.ci_half,
            o.unavailability
        );
        assert!(est.rel_ci() < 0.5, "CI too loose: {}", est.rel_ci());
    }

    #[test]
    fn failure_biasing_agrees_with_oracle_at_paper_rates() {
        // The acceptance bar: tight agreement at the *paper's* rates,
        // where brute force sees nothing. Two configurations.
        for &(n, m, seed) in &[(3usize, 2usize, 0xFB1u64), (5, 3, 0xFB2)] {
            let c = cfg(n, m, FailureRates::PAPER, 60_000, seed);
            let est = estimate(&c, RareMethod::FailureBiasing { bias: 0.5 });
            let o = markov_oracle(n, m, &FailureRates::PAPER, c.mu);
            assert!(
                (est.unavailability - o.unavailability).abs() <= est.ci_half,
                "(n={n}, m={m}): IS {} ± {} vs exact {}",
                est.unavailability,
                est.ci_half,
                o.unavailability
            );
            assert!(
                est.rel_ci() < 0.10,
                "(n={n}, m={m}): rel CI {} not tight",
                est.rel_ci()
            );
        }
    }

    #[test]
    fn splitting_agrees_with_oracle_at_paper_rates() {
        for &(n, m, seed) in &[(3usize, 2usize, 0x5711u64), (5, 3, 0x5712)] {
            let c = cfg(n, m, FailureRates::PAPER, 150_000, seed);
            let est = estimate(&c, RareMethod::Splitting { clones: 100 });
            let o = markov_oracle(n, m, &FailureRates::PAPER, c.mu);
            assert!(
                (est.unavailability - o.unavailability).abs() <= est.ci_half,
                "(n={n}, m={m}): splitting {} ± {} vs exact {}",
                est.unavailability,
                est.ci_half,
                o.unavailability
            );
            assert!(
                est.rel_ci() < 0.6,
                "(n={n}, m={m}): rel CI {} not informative",
                est.rel_ci()
            );
        }
    }

    #[test]
    fn mttf_agrees_with_oracle() {
        let c = cfg(3, 2, FailureRates::PAPER, 60_000, 0x3771F);
        let est = estimate(&c, RareMethod::FailureBiasing { bias: 0.5 });
        let o = markov_oracle(3, 2, &FailureRates::PAPER, c.mu);
        assert!(
            (est.mttf_h - o.mttf_h).abs() <= 3.0 * est.mttf_ci_half,
            "MTTF {} ± {} vs exact {}",
            est.mttf_h,
            est.mttf_ci_half,
            o.mttf_h
        );
    }

    #[test]
    fn variance_reduction_is_real() {
        // Same cycle budget: failure biasing must deliver a far
        // tighter relative CI than brute force at paper rates (where
        // brute force typically sees nothing at this budget).
        let c = cfg(5, 3, FailureRates::PAPER, 20_000, 0x7E57);
        let brute = estimate(&c, RareMethod::BruteForce);
        let is = estimate(&c, RareMethod::FailureBiasing { bias: 0.5 });
        assert!(
            is.rel_ci() < 0.25,
            "IS should be tight at this budget: {}",
            is.rel_ci()
        );
        assert!(
            brute.rel_ci() > 10.0 * is.rel_ci(),
            "brute rel CI {} vs IS rel CI {}",
            brute.rel_ci(),
            is.rel_ci()
        );
    }

    #[test]
    fn brute_force_zero_events_report_upper_bound() {
        let c = cfg(9, 4, FailureRates::PAPER, 1_000, 0x2E40);
        let est = estimate(&c, RareMethod::BruteForce);
        assert_eq!(est.unavailability, 0.0);
        let ub = est.zero_event_upper.expect("nothing observable here");
        let o = markov_oracle(9, 4, &FailureRates::PAPER, c.mu);
        assert!(
            ub > o.unavailability,
            "zero-event bound {ub} must cover the truth {}",
            o.unavailability
        );
        assert_eq!(est.upper_bound(), ub);
        assert!(est.mttf_h.is_infinite());
    }

    #[test]
    fn estimators_are_deterministic_by_seed() {
        let c = cfg(5, 3, FailureRates::PAPER, 5_000, 0xDE7);
        for method in [
            RareMethod::BruteForce,
            RareMethod::FailureBiasing { bias: 0.5 },
            RareMethod::Splitting { clones: 50 },
        ] {
            let a = estimate(&c, method);
            let b = estimate(&c, method);
            assert_eq!(a.unavailability.to_bits(), b.unavailability.to_bits());
            assert_eq!(a.ci_half.to_bits(), b.ci_half.to_bits());
            assert_eq!(a.jumps, b.jumps);
            let mut c2 = c;
            c2.seed ^= 1;
            let d = estimate(&c2, method);
            assert_ne!(
                a.jumps,
                d.jumps,
                "{}: different seed should change the walk",
                method.name()
            );
        }
    }

    #[test]
    fn level_function_is_monotone_toward_down() {
        let mut s = RepState::fresh(3, 5); // (n=5, m=3)
        assert_eq!(down_level(&s), 0);
        // An intermediate failure does not advance the level…
        apply(&mut s, Entity::InterPi, 5, 3);
        assert_eq!(down_level(&s), 0);
        // …but an LC_UA unit failure does…
        apply(&mut s, Entity::LcuaPdlu, 5, 3);
        assert_eq!(down_level(&s), 1);
        // …and the EIB failure finishes it.
        apply(&mut s, Entity::Eib, 5, 3);
        assert_eq!(down_level(&s), 2);
        assert!(!s.serviceable());
        // Repair resets to fresh / level 0.
        apply(&mut s, Entity::Repair, 5, 3);
        assert_eq!(down_level(&s), 0);
    }
}
