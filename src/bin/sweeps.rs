//! `dra run`, `dra check` and `dra list`: one front end over every
//! sweep kind.
//!
//! [`KINDS`] is the registry, the one place that names the kinds. The
//! rest is generic over [`Kind`], so every flag behaves the same for
//! every kind, and a flag a kind has no use for is an error.

use crate::args::{Args, Grammar};
use dra::campaign::json::{parse, Json};
use dra::campaign::rareevent::{self, RareCampaignSpec};
use dra::campaign::report::{print_csv, print_table};
use dra::campaign::sweep::{self, Outcome, RunOptions, Sweep};
use dra::campaign::{pool, registry, CampaignSpec};
use dra::topo::TopoSpec;
use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// `dra run SPEC [flags]`.
pub const RUN: Grammar = Grammar {
    operands: &["SPEC"],
    switches: &[
        "--quick",
        "--no-out",
        "--fresh",
        "--csv",
        "--dry-run",
        "--progress",
        "--telemetry",
    ],
    valued: &[
        "--workers",
        "--seed",
        "--replications",
        "--sim-threads",
        "--out",
        "--cell-budget",
        "--telemetry-out",
        "--trace-out",
    ],
};

/// What `dra` needs of a sweep kind beyond [`Sweep`].
trait Kind: Sweep + Sized {
    /// Registry names.
    const NAMES: &'static [&'static str];
    /// `dra run` flags this kind has no use for.
    const INAPPLICABLE: &'static [&'static str];
    /// The registry spec `name` (`quick` shrinks it for CI).
    fn build(name: &str, quick: bool) -> Option<Self>;
    /// Apply `--seed`, and `--replications` where it applies.
    fn tune(&mut self, args: &Args) -> Result<(), String>;
    /// Run the sweep, each cell's simulation on `sim_threads` threads.
    fn execute(&self, opts: &RunOptions, sim_threads: usize) -> io::Result<Outcome>;
}

impl Kind for CampaignSpec {
    const NAMES: &'static [&'static str] = &registry::NAMES;
    const INAPPLICABLE: &'static [&'static str] = &["--sim-threads"];

    fn build(name: &str, quick: bool) -> Option<Self> {
        registry::build(name, quick)
    }

    fn tune(&mut self, args: &Args) -> Result<(), String> {
        if let Some(seed) = args.value("--seed")? {
            self.master_seed = seed;
        }
        if let Some(reps) = args.value("--replications")? {
            for cell in &mut self.cells {
                cell.replications = reps;
            }
        }
        Ok(())
    }

    fn execute(&self, opts: &RunOptions, _sim_threads: usize) -> io::Result<Outcome> {
        dra::campaign::run(self, opts)
    }
}

impl Kind for RareCampaignSpec {
    const NAMES: &'static [&'static str] = &rareevent::NAMES;
    const INAPPLICABLE: &'static [&'static str] = &[
        "--sim-threads",
        "--replications",
        "--telemetry",
        "--telemetry-out",
        "--trace-out",
    ];

    fn build(name: &str, quick: bool) -> Option<Self> {
        rareevent::build(name, quick)
    }

    fn tune(&mut self, args: &Args) -> Result<(), String> {
        if let Some(seed) = args.value("--seed")? {
            self.master_seed = seed;
        }
        Ok(())
    }

    fn execute(&self, opts: &RunOptions, _sim_threads: usize) -> io::Result<Outcome> {
        rareevent::run(self, opts)
    }
}

impl Kind for TopoSpec {
    const NAMES: &'static [&'static str] = &dra::topo::registry::NAMES;
    const INAPPLICABLE: &'static [&'static str] = &["--replications"];

    fn build(name: &str, quick: bool) -> Option<Self> {
        dra::topo::registry::spec_by_name(name, quick)
    }

    fn tune(&mut self, args: &Args) -> Result<(), String> {
        if let Some(seed) = args.value("--seed")? {
            self.master_seed = seed;
        }
        Ok(())
    }

    fn execute(&self, opts: &RunOptions, sim_threads: usize) -> io::Result<Outcome> {
        dra::topo::run_with(self, opts, sim_threads)
    }
}

/// One sweep kind, as the registry holds it.
pub struct Entry {
    names: &'static [&'static str],
    format: &'static str,
    inapplicable: &'static [&'static str],
    run: fn(&Args) -> Result<ExitCode, String>,
    check: fn(&Path, &str) -> ExitCode,
    describe: fn(&str) -> Vec<String>,
}

impl Entry {
    const fn of<K: Kind>() -> Entry {
        Entry {
            names: K::NAMES,
            format: K::FORMAT,
            inapplicable: K::INAPPLICABLE,
            run: run_kind::<K>,
            check: sweep::check::<K>,
            describe: describe::<K>,
        }
    }
}

/// Every sweep kind. Their registry names are disjoint.
const KINDS: [Entry; 3] = [
    Entry::of::<CampaignSpec>(),
    Entry::of::<RareCampaignSpec>(),
    Entry::of::<TopoSpec>(),
];

/// The kind registering `SPEC`, once the flags are known to apply to
/// it and not to contradict each other.
pub fn check_flags(args: &Args) -> Result<&'static Entry, String> {
    let name = args.operand(0);
    let entry = KINDS
        .iter()
        .find(|k| k.names.contains(&name))
        .ok_or_else(|| format!("unknown spec {name:?}; `dra list` names them all"))?;
    args.forbid(
        entry.inapplicable,
        &format!("does not apply to {name}, a {} sweep", entry.format),
    )?;
    if args.given("--out") && args.switch("--no-out") {
        return Err("--out and --no-out conflict".into());
    }
    if args.switch("--dry-run") {
        args.forbid(
            &["--telemetry", "--telemetry-out", "--trace-out"],
            "conflicts with --dry-run, which simulates nothing",
        )?;
    }
    Ok(entry)
}

/// `dra run SPEC`.
pub fn run(args: &Args) -> Result<ExitCode, String> {
    (check_flags(args)?.run)(args)
}

fn run_kind<K: Kind>(args: &Args) -> Result<ExitCode, String> {
    let mut spec = K::build(args.operand(0), args.switch("--quick")).expect("registered name");
    spec.tune(args)?;
    let out = if args.switch("--no-out") {
        None
    } else {
        let default = || PathBuf::from(format!("results/{}.json", spec.artifact_stem()));
        Some(args.value("--out")?.unwrap_or_else(default))
    };
    let opts = RunOptions {
        workers: args.get("--workers", pool::default_workers())?,
        out,
        cell_budget: args.value("--cell-budget")?,
        fresh: args.switch("--fresh"),
        quiet: false,
        progress: args.switch("--progress"),
        telemetry: args.switch("--telemetry"),
        telemetry_out: args.value("--telemetry-out")?,
        trace_out: args.value("--trace-out")?,
    };
    let sim_threads = args.get("--sim-threads", 1)?;
    if args.switch("--dry-run") {
        let (headers, rows) = spec.grid_table();
        print_table(
            &format!("{} [{}] — dry run", spec.name(), spec.digest()),
            &headers,
            &rows,
        );
        println!(
            "{} cells, master seed {}; nothing simulated",
            spec.n_cells(),
            spec.master_seed()
        );
        return Ok(ExitCode::SUCCESS);
    }
    eprintln!(
        "{} {:?}: {} cells, master seed {}, digest {}, {} workers",
        K::FORMAT,
        spec.name(),
        spec.n_cells(),
        spec.master_seed(),
        spec.digest(),
        opts.workers
    );
    let outcome = match spec.execute(&opts, sim_threads) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("sweep failed: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    eprintln!(
        "completed {} cells ({} resumed from checkpoint, {} failed), {} remaining",
        outcome.completed, outcome.resumed, outcome.failed, outcome.remaining
    );
    let Some(artifact) = &outcome.artifact else {
        eprintln!("cell budget exhausted; re-run to resume");
        return Ok(ExitCode::SUCCESS);
    };
    let (headers, rows) = K::result_table(artifact);
    if args.switch("--csv") {
        print_csv(&headers, &rows);
    } else {
        print_table(spec.name(), &headers, &rows);
    }
    if let Some(path) = &outcome.artifact_path {
        eprintln!("artifact: {}", path.display());
    }
    Ok(if outcome.failed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// `dra check PATH`.
pub const CHECK: Grammar = Grammar {
    operands: &["PATH"],
    switches: &[],
    valued: &[],
};

/// `dra check PATH`: validate an artifact as the kind its `format`
/// names.
pub fn check(args: &Args) -> Result<ExitCode, String> {
    let path = Path::new(args.operand(0));
    let invalid = |why: String| {
        eprintln!("{}: INVALID artifact: {why}", path.display());
        ExitCode::FAILURE
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => return Ok(invalid(format!("cannot read: {e}"))),
    };
    let doc = match parse(&text) {
        Ok(doc) => doc,
        Err(e) => return Ok(invalid(e.to_string())),
    };
    let Some(format) = doc.get("format").and_then(Json::as_str) else {
        return Ok(invalid("no format field".into()));
    };
    Ok(match KINDS.iter().find(|k| k.format == format) {
        Some(kind) => (kind.check)(path, &text),
        None => invalid(format!("unknown format {format:?}")),
    })
}

/// `dra list`: every registered spec of every kind.
pub fn list(_: &Args) -> Result<ExitCode, String> {
    let rows: Vec<Vec<String>> = KINDS
        .iter()
        .flat_map(|k| k.names.iter().map(|name| (k.describe)(name)))
        .collect();
    print_table(
        "sweep specs",
        &["name", "format", "cells", "description"],
        &rows,
    );
    Ok(ExitCode::SUCCESS)
}

fn describe<K: Kind>(name: &str) -> Vec<String> {
    let spec = K::build(name, false).expect("registered name");
    vec![
        name.to_string(),
        K::FORMAT.to_string(),
        spec.n_cells().to_string(),
        spec.description()
            .split_whitespace()
            .collect::<Vec<_>>()
            .join(" "),
    ]
}
