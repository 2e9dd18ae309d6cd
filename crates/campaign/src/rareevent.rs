//! Rare-event availability campaigns: grids of
//! [`dra_core::rareevent`] estimator runs with a built-in exact-Markov
//! cross-check per cell.
//!
//! A [`RareCampaignSpec`] is a [`Sweep`] like
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
use crate::report::Table;
use crate::seed::{derive_seed, Stream};
use crate::sweep::{self, Outcome, RunOptions, Sweep};
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

impl RareCellSpec {
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

    /// Canonical JSON description (everything that affects results).
    pub(crate) fn manifest(&self) -> Json {
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
}

/// A full rare-event campaign.
#[derive(Debug, Clone)]
pub struct RareCampaignSpec {
    /// Campaign name (also the default artifact file stem).
    pub name: String,
    /// One-line description for the artifact manifest.
    pub description: String,
    /// Master seed; every cell's RNG stream derives from it.
    pub master_seed: u64,
    /// The grid.
    pub cells: Vec<RareCellSpec>,
}

impl Sweep for RareCampaignSpec {
    const FORMAT: &'static str = "dra-rareevent/v1";

    fn name(&self) -> &str {
        &self.name
    }

    fn description(&self) -> &str {
        &self.description
    }

    fn master_seed(&self) -> u64 {
        self.master_seed
    }

    fn n_cells(&self) -> usize {
        self.cells.len()
    }

    fn cell_id(&self, i: usize) -> &str {
        &self.cells[i].id
    }

    fn cell_manifest(&self, i: usize) -> Json {
        self.cells[i].manifest()
    }

    fn validate(&self) -> Result<(), String> {
        for (i, cell) in self.cells.iter().enumerate() {
            cell.validate(i)?;
        }
        Ok(())
    }

    /// The record names its cell's method, and both unavailabilities
    /// are probabilities; the record is flagged when the estimate's CI
    /// misses the exact Markov answer.
    fn check_record(record: &Json, cell: &Json) -> Result<bool, String> {
        let kind = cell.get("method").and_then(|m| m.get("kind"));
        sweep::check_declared(record, "method", kind.and_then(Json::as_str))?;
        let u = record
            .get("estimate")
            .and_then(|e| e.get("unavailability"))
            .and_then(Json::as_f64)
            .ok_or("missing estimate.unavailability")?;
        if !(0.0..=1.0).contains(&u) {
            return Err(format!("unavailability {u} outside [0,1]"));
        }
        let exact = record
            .get("markov")
            .and_then(|m| m.get("unavailability"))
            .and_then(Json::as_f64)
            .ok_or("missing markov.unavailability")?;
        if !(0.0..=1.0).contains(&exact) {
            return Err("exact unavailability out of range".into());
        }
        match record.get("markov").and_then(|m| m.get("within_ci")) {
            Some(Json::Bool(covered)) => Ok(*covered),
            _ => Err("missing markov.within_ci".into()),
        }
    }

    fn grid_table(&self) -> Table {
        let rows = self
            .cells
            .iter()
            .map(|cell| {
                vec![
                    cell.id.clone(),
                    cell.method.name().into(),
                    format!("{}", cell.n),
                    format!("{}", cell.m),
                    format!("{:.3}", cell.mu),
                    format!("{}", cell.cycles),
                ]
            })
            .collect();
        (vec!["id", "method", "n", "m", "mu/h", "cycles"], rows)
    }

    fn result_table(artifact: &Json) -> Table {
        let cells = artifact.get("cells").and_then(Json::as_arr).unwrap_or(&[]);
        let fmt = |v: Option<&Json>| match v.and_then(Json::as_f64) {
            Some(x) => format!("{x:.3e}"),
            None => "-".into(),
        };
        let rows = cells
            .iter()
            .map(|c| {
                if let Some(err) = c.get("error").and_then(Json::as_str) {
                    let id = c.get("id").and_then(Json::as_str).unwrap_or("?");
                    let mut row = vec![id.to_string(), format!("ERROR: {err}")];
                    row.resize(6, String::new());
                    return row;
                }
                let est = c.get("estimate");
                let mk = c.get("markov");
                vec![
                    c.get("id").and_then(Json::as_str).unwrap_or("?").into(),
                    fmt(est.and_then(|e| e.get("unavailability"))),
                    fmt(est.and_then(|e| e.get("ci95"))),
                    est.and_then(|e| e.get("nines"))
                        .and_then(Json::as_str)
                        .unwrap_or("-")
                        .into(),
                    fmt(mk.and_then(|m| m.get("unavailability"))),
                    match mk.and_then(|m| m.get("within_ci")) {
                        Some(Json::Bool(true)) => "yes".into(),
                        Some(Json::Bool(false)) => "MISS".into(),
                        _ => "-".into(),
                    },
                ]
            })
            .collect();
        (vec!["cell", "U", "ci95", "nines", "exact U", "in CI"], rows)
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
    sweep::run(spec, opts, |_| |i| run_cell(spec, i))
}

/// `Num` for finite values, `Null` otherwise (a brute-force cell at
/// paper rates legitimately reports an infinite MTTF).
fn fin(v: f64) -> Json {
    if v.is_finite() {
        Json::Num(v)
    } else {
        Json::Null
    }
}

/// Run one cell: estimator + exact oracle + coverage verdicts.
fn run_cell(spec: &RareCampaignSpec, index: usize) -> Json {
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

    let iv = nines_interval(
        est.unavailability,
        est.zero_event_upper.unwrap_or(est.ci_half),
    );
    let mut est_fields = vec![
        ("unavailability", Json::Num(est.unavailability)),
        ("ci95", Json::Num(est.ci_half)),
        ("rel_ci", fin(est.rel_ci())),
        ("nines", Json::Str(format_nines_interval(&iv))),
        ("gamma", Json::Num(est.gamma)),
        ("mean_cycle_h", Json::Num(est.mean_cycle_h)),
        ("mttf_h", fin(est.mttf_h)),
        ("mttf_ci95", fin(est.mttf_ci_half)),
        ("cycles", Json::Num(est.cycles as f64)),
        ("jumps", Json::Num(est.jumps as f64)),
    ];
    if let Some(u) = est.zero_event_upper {
        est_fields.push(("zero_event_upper", Json::Num(u)));
    }

    Json::obj(vec![
        ("cell", Json::Num(index as f64)),
        ("id", Json::Str(cell.id.clone())),
        ("method", Json::Str(cell.method.name().into())),
        ("estimate", Json::obj(est_fields)),
        (
            "markov",
            Json::obj(vec![
                ("states", Json::Num(oracle.states as f64)),
                ("unavailability", Json::Num(oracle.unavailability)),
                ("mttf_h", Json::Num(oracle.mttf_h)),
                ("within_ci", Json::Bool(within_ci)),
                (
                    "mttf_within_ci",
                    mttf_within_ci.map(Json::Bool).unwrap_or(Json::Null),
                ),
            ]),
        ),
    ])
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
        let (cells, misses) = sweep::validate::<RareCampaignSpec>(&text).unwrap();
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
        let validate = sweep::validate::<RareCampaignSpec>;
        assert!(validate("{\"format\":\"dra-campaign/v1\"}").is_err());
        assert!(validate("nope").is_err());
    }
}
