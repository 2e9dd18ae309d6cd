//! `campaign` — run experiment campaigns from the command line.
//!
//! ```text
//! campaign [--spec NAME] [--quick] [--workers N] [--seed S]
//!          [--replications R] [--out PATH] [--cell-budget N]
//!          [--fresh] [--csv] [--list] [--progress]
//!          [--telemetry] [--telemetry-out PATH] [--trace PATH]
//! campaign --check PATH
//! ```
//!
//! Artifacts land under `results/<spec>.json` by default, next to a
//! `.partial.jsonl` checkpoint while a campaign (packet or rare-event)
//! is underway. Re-running the same spec resumes from the checkpoint;
//! `--fresh` discards it.

use dra_campaign::json::{parse, Json};
use dra_campaign::rareevent::{self, RareCampaignSpec};
use dra_campaign::registry;
use dra_campaign::report::{artifact_table, print_csv, print_table};
use dra_campaign::sweep::{self, Outcome, RunOptions, Sweep};
use dra_campaign::{engine, CampaignSpec};
use std::path::PathBuf;
use std::process::ExitCode;

struct Cli {
    spec: String,
    quick: bool,
    workers: usize,
    seed: Option<u64>,
    replications: Option<usize>,
    out: Option<PathBuf>,
    no_out: bool,
    cell_budget: Option<usize>,
    fresh: bool,
    csv: bool,
    list: bool,
    check: Option<PathBuf>,
    dry_run: bool,
    progress: bool,
    telemetry: bool,
    telemetry_out: Option<PathBuf>,
    trace: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: campaign [--spec NAME] [--quick] [--workers N] [--seed S]\n\
         \x20               [--replications R] [--out PATH | --no-out]\n\
         \x20               [--cell-budget N] [--fresh] [--csv] [--progress]\n\
         \x20               [--dry-run]\n\
         \x20               [--telemetry] [--telemetry-out PATH] [--trace PATH]\n\
         \x20      campaign --list\n\
         \x20      campaign --check PATH\n\
         \n\
         Runs a named campaign spec (default: faceoff) and writes a\n\
         versioned JSON artifact to results/<spec>.json. Interrupted\n\
         runs resume from the .partial.jsonl checkpoint automatically.\n\
         \n\
         --dry-run        print the expanded grid (cell count, axes)\n\
         \x20               and exit without simulating\n\
         --progress       heartbeat on stderr (cells done, elapsed, ETA)\n\
         --telemetry      embed a dra-telemetry/v1 section in the artifact\n\
         --telemetry-out  write the merged snapshot to a separate file\n\
         \x20               (artifact stays byte-identical)\n\
         --trace          write a Perfetto-loadable Chrome trace JSON\n\
         \n\
         --out and --no-out conflict, as do --list and --check; --dry-run\n\
         simulates nothing, so --telemetry/--telemetry-out/--trace conflict\n\
         with it. Packet campaigns only collect telemetry; it cannot be\n\
         combined with --cell-budget."
    );
    std::process::exit(2);
}

impl Default for Cli {
    fn default() -> Self {
        Cli {
            spec: "faceoff".into(),
            quick: false,
            workers: dra_campaign::pool::default_workers(),
            seed: None,
            replications: None,
            out: None,
            no_out: false,
            cell_budget: None,
            fresh: false,
            csv: false,
            list: false,
            check: None,
            dry_run: false,
            progress: false,
            telemetry: false,
            telemetry_out: None,
            trace: None,
        }
    }
}

fn parse_cli() -> Cli {
    let mut cli = Cli::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--spec" => cli.spec = value("--spec"),
            "--quick" => cli.quick = true,
            "--workers" => cli.workers = value("--workers").parse().unwrap_or_else(|_| usage()),
            "--seed" => cli.seed = Some(value("--seed").parse().unwrap_or_else(|_| usage())),
            "--replications" => {
                cli.replications = Some(value("--replications").parse().unwrap_or_else(|_| usage()))
            }
            "--out" => cli.out = Some(PathBuf::from(value("--out"))),
            "--no-out" => cli.no_out = true,
            "--cell-budget" => {
                cli.cell_budget = Some(value("--cell-budget").parse().unwrap_or_else(|_| usage()))
            }
            "--fresh" => cli.fresh = true,
            "--csv" => cli.csv = true,
            "--list" => cli.list = true,
            "--check" => cli.check = Some(PathBuf::from(value("--check"))),
            "--dry-run" => cli.dry_run = true,
            "--progress" => cli.progress = true,
            "--telemetry" => cli.telemetry = true,
            "--telemetry-out" => cli.telemetry_out = Some(PathBuf::from(value("--telemetry-out"))),
            "--trace" => cli.trace = Some(PathBuf::from(value("--trace"))),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument {other:?}");
                usage();
            }
        }
    }
    if let Some(conflict) = cli.conflict() {
        eprintln!("{conflict}");
        usage();
    }
    cli
}

impl Cli {
    /// The first contradictory flag combination, if any: these are hard
    /// errors, not silent picks.
    fn conflict(&self) -> Option<&'static str> {
        let collects = self.telemetry || self.telemetry_out.is_some() || self.trace.is_some();
        if self.out.is_some() && self.no_out {
            Some("--out and --no-out conflict")
        } else if self.list && self.check.is_some() {
            Some("--list and --check conflict")
        } else if self.dry_run && collects {
            Some(
                "--dry-run simulates nothing, so --telemetry/--telemetry-out/--trace \
                 conflict with it",
            )
        } else {
            None
        }
    }
}

/// Run `spec` with the CLI's run options, report progress, and print
/// the finished artifact with `print`.
fn execute<S: Sweep>(
    spec: &S,
    cli: &Cli,
    run: impl FnOnce(&S, &RunOptions) -> std::io::Result<Outcome>,
    print: impl FnOnce(&Json),
) -> ExitCode {
    let out = if cli.no_out {
        None
    } else {
        Some(
            cli.out
                .clone()
                .unwrap_or_else(|| PathBuf::from(format!("results/{}.json", spec.name()))),
        )
    };
    let opts = RunOptions {
        workers: cli.workers,
        out,
        cell_budget: cli.cell_budget,
        fresh: cli.fresh,
        quiet: false,
        progress: cli.progress,
        telemetry: cli.telemetry,
        telemetry_out: cli.telemetry_out.clone(),
        trace_out: cli.trace.clone(),
    };
    eprintln!(
        "campaign {:?}: {} cells, master seed {}, digest {}, {} workers",
        spec.name(),
        spec.n_cells(),
        spec.master_seed(),
        spec.digest(),
        opts.workers
    );
    let outcome = match run(spec, &opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("campaign failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "completed {} cells ({} resumed from checkpoint, {} failed), {} remaining",
        outcome.completed, outcome.resumed, outcome.failed, outcome.remaining
    );
    let Some(artifact) = &outcome.artifact else {
        eprintln!("cell budget exhausted; re-run to resume");
        return ExitCode::SUCCESS;
    };
    print(artifact);
    if let Some(path) = &outcome.artifact_path {
        eprintln!("artifact: {}", path.display());
    }
    if outcome.failed > 0 {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Drive a rare-event campaign (`--replications` does not apply).
fn run_rare_campaign(mut spec: RareCampaignSpec, cli: &Cli) -> ExitCode {
    if let Some(seed) = cli.seed {
        spec.master_seed = seed;
    }
    if cli.dry_run {
        let rows: Vec<Vec<String>> = spec
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
        print_table(
            &format!("campaign {} [{}] — dry run", spec.name, spec.digest()),
            &["id", "method", "n", "m", "mu/h", "cycles"],
            &rows,
        );
        println!(
            "{} cells, master seed {}; nothing simulated",
            spec.cells.len(),
            spec.master_seed
        );
        return ExitCode::SUCCESS;
    }
    execute(&spec, cli, rareevent::run, rareevent::print_rare_table)
}

fn main() -> ExitCode {
    let cli = parse_cli();

    if cli.list {
        let rows: Vec<Vec<String>> = registry::ENTRIES
            .iter()
            .chain(rareevent::RARE_ENTRIES.iter())
            .map(|e| {
                vec![
                    e.name.to_string(),
                    e.summary.split_whitespace().collect::<Vec<_>>().join(" "),
                ]
            })
            .collect();
        print_table("available campaign specs", &["name", "summary"], &rows);
        return ExitCode::SUCCESS;
    }

    if let Some(path) = &cli.check {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        // Dispatch on the artifact's own format field, so one --check
        // flag covers both campaign kinds.
        let format = parse(&text)
            .ok()
            .and_then(|doc| doc.get("format").and_then(Json::as_str).map(String::from));
        return if format.as_deref() == Some(RareCampaignSpec::FORMAT) {
            sweep::check::<RareCampaignSpec>(path, &text)
        } else {
            sweep::check::<CampaignSpec>(path, &text)
        };
    }

    let mut spec = match registry::build(&cli.spec, cli.quick) {
        Some(s) => s,
        None => {
            // Not a packet campaign — fall back to the rare-event
            // registry before giving up.
            if let Some(rspec) = rareevent::build(&cli.spec, cli.quick) {
                return run_rare_campaign(rspec, &cli);
            }
            eprintln!("unknown spec {:?}; try --list", cli.spec);
            return ExitCode::FAILURE;
        }
    };
    if let Some(seed) = cli.seed {
        spec.master_seed = seed;
    }
    if let Some(reps) = cli.replications {
        for cell in &mut spec.cells {
            cell.replications = reps.max(1);
        }
    }

    if cli.dry_run {
        let rows: Vec<Vec<String>> = spec
            .cells
            .iter()
            .map(|cell| {
                let scenario = match &cell.scenario {
                    dra_campaign::spec::ScenarioTemplate::Explicit(s) => {
                        format!("explicit ({} actions, {}s)", s.len(), s.horizon())
                    }
                    dra_campaign::spec::ScenarioTemplate::Sampled { horizon_s, .. } => {
                        format!("sampled ({horizon_s}s)")
                    }
                };
                vec![
                    cell.id.clone(),
                    cell.arch.name().into(),
                    format!("{}", cell.config.n_lcs),
                    format!("{:.2}", cell.config.load),
                    scenario,
                    format!("{}", cell.replications),
                    format!("{}", cell.seed_group),
                ]
            })
            .collect();
        print_table(
            &format!("campaign {} [{}] — dry run", spec.name, spec.digest()),
            &["id", "arch", "lcs", "load", "scenario", "reps", "group"],
            &rows,
        );
        let total_reps: usize = spec.cells.iter().map(|c| c.replications).sum();
        println!(
            "{} cells, {} total replications, master seed {}; nothing simulated",
            spec.cells.len(),
            total_reps,
            spec.master_seed
        );
        return ExitCode::SUCCESS;
    }

    execute(&spec, &cli, engine::run, |artifact| {
        let (headers, rows) = artifact_table(artifact);
        if cli.csv {
            print_csv(&headers, &rows);
        } else {
            print_table(&format!("campaign {}", spec.name), &headers, &rows);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contradictory_flags_conflict() {
        assert_eq!(Cli::default().conflict(), None);
        let out_and_no_out = Cli {
            out: Some("a.json".into()),
            no_out: true,
            ..Cli::default()
        };
        assert!(out_and_no_out.conflict().unwrap().contains("--no-out"));
        let list_and_check = Cli {
            list: true,
            check: Some("a.json".into()),
            ..Cli::default()
        };
        assert!(list_and_check.conflict().unwrap().contains("--check"));
        for dry in [
            Cli {
                telemetry: true,
                ..Cli::default()
            },
            Cli {
                telemetry_out: Some("t.json".into()),
                ..Cli::default()
            },
            Cli {
                trace: Some("t.json".into()),
                ..Cli::default()
            },
        ] {
            assert_eq!(dry.conflict(), None);
            let dry = Cli {
                dry_run: true,
                ..dry
            };
            assert!(dry.conflict().unwrap().contains("--dry-run"));
        }
    }
}
