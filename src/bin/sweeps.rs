//! `dra run`, `dra check` and `dra list`: one front end over every
//! sweep kind.
//!
//! [`KINDS`] is the registry, the one place that names the kinds. The
//! rest is generic over [`Kind`], so every flag behaves the same for
//! every kind, and a flag a kind has no use for is an error.

use crate::args::{Args, Grammar};
use dra::campaign::json::{parse, Json};
use dra::campaign::rareevent::{self, RareCampaignSpec, RareCellSpec};
use dra::campaign::record::result_table;
use dra::campaign::report::{print_csv, print_table};
use dra::campaign::sweep::{self, Grid, Outcome, RunOptions, Sweep};
use dra::campaign::{pool, registry, CampaignSpec, CellSpec};
use dra::topo::{TopoCellSpec, TopoSpec};
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
    const BUILD: fn(&str, bool) -> Option<Grid<Self>>;
    /// Run the sweep.
    const EXECUTE: fn(&Grid<Self>, &RunOptions) -> io::Result<Outcome>;
    /// Apply `--replications` (only kinds that take the flag see it).
    fn set_replications(&mut self, _: usize) {}
}

impl Kind for CellSpec {
    const NAMES: &'static [&'static str] = &registry::NAMES;
    const INAPPLICABLE: &'static [&'static str] = &[];
    const BUILD: fn(&str, bool) -> Option<CampaignSpec> = registry::build;
    const EXECUTE: fn(&CampaignSpec, &RunOptions) -> io::Result<Outcome> = dra::campaign::run;

    fn set_replications(&mut self, replications: usize) {
        self.replications = replications;
    }
}

impl Kind for RareCellSpec {
    const NAMES: &'static [&'static str] = &rareevent::NAMES;
    const INAPPLICABLE: &'static [&'static str] = &[
        "--replications",
        "--telemetry",
        "--telemetry-out",
        "--trace-out",
    ];
    const BUILD: fn(&str, bool) -> Option<RareCampaignSpec> = rareevent::build;
    const EXECUTE: fn(&RareCampaignSpec, &RunOptions) -> io::Result<Outcome> = rareevent::run;
}

impl Kind for TopoCellSpec {
    const NAMES: &'static [&'static str] = &dra::topo::registry::NAMES;
    const INAPPLICABLE: &'static [&'static str] = &["--replications"];
    const BUILD: fn(&str, bool) -> Option<TopoSpec> = dra::topo::registry::spec_by_name;
    const EXECUTE: fn(&TopoSpec, &RunOptions) -> io::Result<Outcome> = dra::topo::run_with;
}

/// One sweep kind, as the registry holds it.
pub struct Entry {
    names: &'static [&'static str],
    format: &'static str,
    inapplicable: &'static [&'static str],
    run: fn(&Args) -> Result<ExitCode, String>,
    check: fn(&str) -> Result<(usize, usize), String>,
    describe: fn(&str) -> Vec<String>,
}

impl Entry {
    const fn of<K: Kind>() -> Entry {
        Entry {
            names: K::NAMES,
            format: K::FORMAT,
            inapplicable: K::INAPPLICABLE,
            run: run_kind::<K>,
            check: sweep::validate::<K>,
            describe: describe::<K>,
        }
    }
}

/// Every sweep kind. Their registry names are disjoint.
const KINDS: [Entry; 3] = [
    Entry::of::<CellSpec>(),
    Entry::of::<RareCellSpec>(),
    Entry::of::<TopoCellSpec>(),
];

/// The kind registering `SPEC`, once the flags are known to apply to
/// it, to hold usable values and not to contradict each other.
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
    if args.value::<usize>("--workers")? == Some(0) {
        return Err("--workers must be at least 1".into());
    }
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
    let mut spec = (K::BUILD)(args.operand(0), args.switch("--quick")).expect("registered name");
    if let Some(seed) = args.value("--seed")? {
        spec.master_seed = seed;
    }
    if let Some(replications) = args.value("--replications")? {
        spec.cells
            .iter_mut()
            .for_each(|c| c.set_replications(replications));
    }
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
    if args.switch("--dry-run") {
        let rows: Vec<_> = spec.cells.iter().map(K::grid_row).collect();
        print_table(
            &format!("{} [{}] — dry run", spec.name, spec.digest()),
            K::GRID_HEADERS,
            &rows,
        );
        println!(
            "{} cells, master seed {}; nothing simulated",
            spec.cells.len(),
            spec.master_seed
        );
        return Ok(ExitCode::SUCCESS);
    }
    eprintln!(
        "{} {:?}: {} cells, master seed {}, digest {}, {} workers",
        K::FORMAT,
        spec.name,
        spec.cells.len(),
        spec.master_seed,
        spec.digest(),
        opts.workers
    );
    let outcome = match (K::EXECUTE)(&spec, &opts) {
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
    let cells = sweep::records::<K>(artifact).expect("a validated artifact");
    let (headers, rows) = result_table(&cells);
    if args.switch("--csv") {
        print_csv(&headers, &rows);
    } else {
        print_table(&spec.name, &headers, &rows);
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
    let Some(kind) = KINDS.iter().find(|k| k.format == format) else {
        return Ok(invalid(format!("unknown format {format:?}")));
    };
    Ok(match (kind.check)(&text) {
        Ok((cells, flagged)) => {
            println!(
                "{}: valid {format} artifact, {cells} cells, {flagged} flagged \
                 (error cells or failed record checks)",
                path.display()
            );
            if flagged > 0 {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => invalid(e),
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
    let spec = (K::BUILD)(name, false).expect("registered name");
    vec![
        name.to_string(),
        K::FORMAT.to_string(),
        spec.cells.len().to_string(),
        spec.description
            .split_whitespace()
            .collect::<Vec<_>>()
            .join(" "),
    ]
}
