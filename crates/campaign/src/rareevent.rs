//! Rare-event availability campaigns: grids of
//! [`dra_core::rareevent`] estimator runs with a built-in exact-Markov
//! cross-check per cell.
//!
//! A [`RareCampaignSpec`] is a [`Grid`] of [`Sweep`] cells like
//! [`crate::spec::CampaignSpec`], so it runs through the same
//! [`crate::sweep`] envelope (worker pool, checkpoint/resume, digest,
//! validated atomic artifact). Cells draw their RNG seed from
//! [`crate::seed::derive_seed`] keyed by cell index, so the
//! `dra-rareevent/v1` artifact is byte-identical for any worker count
//! — including the splitting estimator, whose clone trajectories
//! derive *their* seeds structurally inside the core estimator.
//!
//! What makes this campaign kind different from the packet campaigns:
//! every cell also solves the **exact** component-level Markov model
//! ([`dra_core::rareevent::markov_oracle`]) and records whether the
//! estimate's confidence interval covers the exact answer. The artifact
//! is therefore self-validating: `dra check` fails if any cell's
//! CI misses truth, no external baseline needed.

use crate::json::Json;
use crate::record::{declared, same, Fields, Record, Schema};
use crate::seed::{derive_seed, Stream};
use crate::sweep::{self, Grid, Outcome, RunOptions, Sweep};
use dra_core::analysis::nines::{format_nines_interval, nines_interval};
use dra_core::rareevent::{estimate, markov_oracle, RareConfig, RareMethod};
use dra_router::components::FailureRates;

/// One grid point: a configuration and the estimator to run on it.
#[derive(Debug, Clone)]
pub struct RareCellSpec {
    /// Unique cell id, e.g. `"failure-biasing/n9m4"`.
    pub id: String,
    /// Total linecards.
    pub n: usize,
    /// Same-protocol linecards.
    pub m: usize,
    /// Component failure rates (per hour) — typically the paper's real
    /// ones, which is the whole point of this campaign kind.
    pub rates: FailureRates,
    /// Repair rate (per hour).
    pub mu: f64,
    /// Regenerative cycles to simulate.
    pub cycles: usize,
    /// Which estimator runs this cell.
    pub method: RareMethod,
}

impl Sweep for RareCellSpec {
    const FORMAT: &'static str = "dra-rareevent/v1";
    type Record = RareRecord;
    const GRID_HEADERS: &'static [&'static str] = &["id", "method", "n", "m", "mu/h", "cycles"];

    fn id(&self) -> &str {
        &self.id
    }

    fn validate(&self, index: usize) -> Result<(), String> {
        let fault = if self.n < 3 {
            "n < 3"
        } else if !(2..=self.n).contains(&self.m) {
            "m outside 2..=n"
        } else if self.mu.is_nan() || self.mu <= 0.0 {
            "non-positive repair rate"
        } else if self.cycles < 1 {
            "no cycles"
        } else {
            match self.method {
                RareMethod::FailureBiasing { bias } if !(bias > 0.0 && bias < 1.0) => {
                    "bias outside (0,1)"
                }
                RareMethod::Splitting { clones: 0 } => "zero clones",
                _ => return Ok(()),
            }
        };
        Err(format!("cell {index}: {fault}"))
    }

    fn manifest(&self) -> Json {
        let r = &self.rates;
        let method = match self.method {
            RareMethod::BruteForce => Json::obj(vec![("kind", Json::Str("brute-force".into()))]),
            RareMethod::Splitting { clones } => Json::obj(vec![
                ("kind", Json::Str("splitting".into())),
                ("clones", Json::Num(clones as f64)),
            ]),
            RareMethod::FailureBiasing { bias } => Json::obj(vec![
                ("kind", Json::Str("failure-biasing".into())),
                ("bias", Json::Num(bias)),
            ]),
        };
        Json::obj(vec![
            ("id", Json::Str(self.id.clone())),
            ("n", Json::Num(self.n as f64)),
            ("m", Json::Num(self.m as f64)),
            ("mu_per_h", Json::Num(self.mu)),
            ("cycles", Json::Num(self.cycles as f64)),
            (
                "rates_per_h",
                Json::obj(vec![
                    ("lc", Json::Num(r.lc)),
                    ("pdlu", Json::Num(r.pdlu)),
                    ("pi_units", Json::Num(r.pi_units)),
                    ("bus_controller", Json::Num(r.bus_controller)),
                    ("eib", Json::Num(r.eib)),
                ]),
            ),
            ("method", method),
        ])
    }

    fn grid_row(&self) -> Vec<String> {
        vec![
            self.id.clone(),
            self.method.name().into(),
            format!("{}", self.n),
            format!("{}", self.m),
            format!("{:.3}", self.mu),
            format!("{}", self.cycles),
        ]
    }
}

/// A full rare-event campaign.
pub type RareCampaignSpec = Grid<RareCellSpec>;

/// A `dra-rareevent/v1` cell record: the estimate, and the exact
/// Markov answer it is checked against. An estimate that is not finite
/// is `None`, and `zero_event_upper` is present exactly when no down
/// event was seen (`gamma` is 0).
#[derive(Debug, Default)]
pub struct RareRecord {
    method: String,
    unavailability: f64,
    ci95: f64,
    rel_ci: Option<f64>,
    nines: String,
    gamma: f64,
    mean_cycle_h: f64,
    mttf_h: Option<f64>,
    mttf_ci95: Option<f64>,
    cycles: u64,
    jumps: u64,
    zero_event_upper: Option<f64>,
    states: u64,
    exact_unavailability: f64,
    exact_mttf_h: f64,
    within_ci: bool,
    mttf_within_ci: Option<bool>,
}

impl Schema for RareRecord {
    fn fields(&mut self, f: &mut Fields) {
        f.field("method", &mut self.method);
        f.object("estimate", |f| {
            f.field("unavailability", &mut self.unavailability);
            f.field("ci95", &mut self.ci95);
            f.field("rel_ci", &mut self.rel_ci);
            f.field("nines", &mut self.nines);
            f.field("gamma", &mut self.gamma);
            f.field("mean_cycle_h", &mut self.mean_cycle_h);
            f.field("mttf_h", &mut self.mttf_h);
            f.field("mttf_ci95", &mut self.mttf_ci95);
            f.field("cycles", &mut self.cycles);
            f.field("jumps", &mut self.jumps);
            f.optional("zero_event_upper", &mut self.zero_event_upper);
        });
        f.object("markov", |f| {
            f.field("states", &mut self.states);
            f.field("unavailability", &mut self.exact_unavailability);
            f.field("mttf_h", &mut self.exact_mttf_h);
            f.field("within_ci", &mut self.within_ci);
            f.field("mttf_within_ci", &mut self.mttf_within_ci);
        });
    }
}

impl Record for RareRecord {
    const HEADERS: &'static [&'static str] = &["cell", "U", "ci95", "nines", "exact U", "in CI"];

    fn row(&self) -> Vec<String> {
        vec![
            format!("{:.3e}", self.unavailability),
            format!("{:.3e}", self.ci95),
            self.nines.clone(),
            format!("{:.3e}", self.exact_unavailability),
            if self.within_ci { "yes" } else { "MISS" }.into(),
        ]
    }

    /// The record names its cell's method, both unavailabilities are
    /// probabilities, and a zero-event bound comes exactly with a zero
    /// `gamma`; the record is flagged when the estimate's CI misses the
    /// exact Markov answer.
    fn check(&self, cell: &Json) -> Result<bool, String> {
        same("method", &self.method, &declared(cell, "method.kind")?)?;
        let (u, exact) = (self.unavailability, self.exact_unavailability);
        if !((0.0..=1.0).contains(&u) && (0.0..=1.0).contains(&exact)) {
            return Err(format!("unavailability {u} or exact {exact} outside [0,1]"));
        }
        if self.zero_event_upper.is_some() != (self.gamma == 0.0) {
            return Err("estimate.zero_event_upper is present iff gamma is 0".into());
        }
        Ok(self.within_ci)
    }
}

/// Execute a rare-event campaign through the [`crate::sweep`] envelope
/// (so an interrupted run with `opts.out` resumes from its checkpoint).
/// Rare-event cells run no packet simulation, so a request for any
/// telemetry output is an [`std::io::ErrorKind::InvalidInput`] error.
pub fn run(spec: &RareCampaignSpec, opts: &RunOptions) -> std::io::Result<Outcome> {
    if opts.collects_telemetry() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "rare-event sweeps collect no telemetry",
        ));
    }
    sweep::run(spec, opts, |i| run_cell(spec, i))
}

/// Run one cell: estimator + exact oracle + coverage verdicts.
fn run_cell(spec: &RareCampaignSpec, index: usize) -> RareRecord {
    let cell = &spec.cells[index];
    let seed = derive_seed(spec.master_seed, index as u64, 0, Stream::Simulation);
    let cfg = RareConfig {
        n: cell.n,
        m: cell.m,
        rates: cell.rates,
        mu: cell.mu,
        cycles: cell.cycles,
        seed,
    };
    let est = estimate(&cfg, cell.method);
    let oracle = markov_oracle(cell.n, cell.m, &cell.rates, cell.mu);

    // Coverage verdict: the CI (or the zero-event upper bound) must
    // bracket the exact answer from above, and the lower CI edge must
    // not exceed it. Both are deterministic given the spec, so a
    // `false` here is a reproducible estimator bug, not flake.
    let within_ci = oracle.unavailability <= est.upper_bound()
        && oracle.unavailability >= est.unavailability - est.ci_half;
    // The MTTF verdict only applies when the estimator saw a down
    // event at all; an infinite estimate is "no verdict", not a miss.
    let mttf_within_ci = est
        .mttf_h
        .is_finite()
        .then(|| (oracle.mttf_h - est.mttf_h).abs() <= est.mttf_ci_half);

    // A brute-force cell at paper rates legitimately reports an
    // infinite MTTF: the record holds `None` for a value not finite.
    let fin = |v: f64| v.is_finite().then_some(v);
    let iv = nines_interval(
        est.unavailability,
        est.zero_event_upper.unwrap_or(est.ci_half),
    );
    RareRecord {
        method: cell.method.name().into(),
        unavailability: est.unavailability,
        ci95: est.ci_half,
        rel_ci: fin(est.rel_ci()),
        nines: format_nines_interval(&iv),
        gamma: est.gamma,
        mean_cycle_h: est.mean_cycle_h,
        mttf_h: fin(est.mttf_h),
        mttf_ci95: fin(est.mttf_ci_half),
        cycles: est.cycles as u64,
        jumps: est.jumps,
        zero_event_upper: est.zero_event_upper,
        states: oracle.states as u64,
        exact_unavailability: oracle.unavailability,
        exact_mttf_h: oracle.mttf_h,
        within_ci,
        mttf_within_ci,
    }
}

/// Names [`build`] accepts.
pub const NAMES: [&str; 2] = ["rareevent", "rareevent-quick"];

/// Build a built-in rare-event spec by name. `quick` shrinks the grid
/// (and `"rareevent-quick"` is an alias for `("rareevent", quick)`).
pub fn build(name: &str, quick: bool) -> Option<RareCampaignSpec> {
    match name {
        "rareevent" => Some(rareevent(quick)),
        "rareevent-quick" => Some(rareevent(true)),
        _ => None,
    }
}

/// The rareevent grid: paper configurations × the three estimators at
/// the paper's real (uninflated) failure rates and 3-hour repair.
fn rareevent(quick: bool) -> RareCampaignSpec {
    let configs: &[(usize, usize)] = if quick {
        &[(3, 2), (5, 3)]
    } else {
        &[(3, 2), (5, 3), (9, 4), (16, 8)]
    };
    // Cycle budgets per method, sized so every estimator's CI (or
    // zero-event bound) covers the exact answer with headroom: the
    // biased estimators get live CIs, brute force at these rates sees
    // nothing and must fall back to its rule-of-three bound.
    let (brute, bfb, split) = if quick {
        (20_000, 30_000, 60_000)
    } else {
        (200_000, 200_000, 150_000)
    };
    let methods = [
        (RareMethod::FailureBiasing { bias: 0.5 }, bfb),
        (RareMethod::Splitting { clones: 100 }, split),
        (RareMethod::BruteForce, brute),
    ];
    let mut cells = Vec::new();
    for &(n, m) in configs {
        for (method, cycles) in methods {
            cells.push(RareCellSpec {
                id: format!("{}/n{n}m{m}", method.name()),
                n,
                m,
                rates: FailureRates::PAPER,
                mu: 1.0 / 3.0,
                cycles,
                method,
            });
        }
    }
    RareCampaignSpec {
        name: if quick {
            "rareevent-quick"
        } else {
            "rareevent"
        }
        .into(),
        description: "rare-event unavailability estimators vs the exact \
                      Markov model at the paper's real rates (mu = 1/3)"
            .into(),
        master_seed: 0xDA7A_5EED,
        cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> RareCampaignSpec {
        // Inflated rates keep the unit tests fast while still
        // exercising every estimator path (including cloning).
        let rates = dra_core::montecarlo::inflated_rates(1000.0);
        let mk = |id: &str, method| RareCellSpec {
            id: id.into(),
            n: 3,
            m: 2,
            rates,
            mu: 1.0 / 3.0,
            cycles: 4_000,
            method,
        };
        RareCampaignSpec {
            name: "t".into(),
            description: "unit".into(),
            master_seed: 11,
            cells: vec![
                mk("bfb", RareMethod::FailureBiasing { bias: 0.5 }),
                mk("split", RareMethod::Splitting { clones: 20 }),
                mk("brute", RareMethod::BruteForce),
            ],
        }
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let spec = tiny_spec();
        let d = spec.digest();
        assert_eq!(d.len(), 16);
        let mut other = spec.clone();
        other.master_seed ^= 1;
        assert_ne!(d, other.digest());
        let mut other = spec;
        other.cells[0].method = RareMethod::FailureBiasing { bias: 0.7 };
        assert_ne!(d, other.digest(), "method knobs must change the digest");
    }

    #[test]
    fn run_produces_valid_artifact_and_cis_cover() {
        let out = run(&tiny_spec(), &RunOptions::default()).unwrap();
        assert_eq!(out.failed, 0);
        let text = out.artifact_text;
        let (cells, misses) = sweep::validate::<RareCellSpec>(&text).unwrap();
        assert_eq!(cells, 3);
        assert_eq!(misses, 0, "a CI missed the exact answer:\n{text}");
    }

    #[test]
    fn artifact_independent_of_worker_count() {
        let spec = tiny_spec();
        let at = |workers| {
            run(
                &spec,
                &RunOptions {
                    workers,
                    ..Default::default()
                },
            )
            .unwrap()
            .artifact_text
        };
        assert_eq!(at(1), at(4));
    }

    #[test]
    fn telemetry_options_are_rejected() {
        let spec = tiny_spec();
        let options = [
            RunOptions {
                telemetry: true,
                ..Default::default()
            },
            RunOptions {
                telemetry_out: Some("snap.json".into()),
                ..Default::default()
            },
            RunOptions {
                trace_out: Some("trace.json".into()),
                ..Default::default()
            },
        ];
        for opts in &options {
            let err = run(&spec, opts).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
            assert!(err.to_string().contains("collect no telemetry"), "{err}");
        }
    }

    #[test]
    fn registry_builds_and_validates() {
        for name in NAMES {
            let spec = build(name, false).expect(name);
            sweep::check_spec(&spec).unwrap();
            assert!(!spec.cells.is_empty());
        }
        assert!(
            build("rareevent", true).unwrap().cells.len()
                < build("rareevent", false).unwrap().cells.len()
        );
        assert!(build("nope", false).is_none());
    }

    #[test]
    fn validate_rejects_wrong_format() {
        let validate = sweep::validate::<RareCellSpec>;
        assert!(validate("{\"format\":\"dra-campaign/v1\"}").is_err());
        assert!(validate("nope").is_err());
    }
}
