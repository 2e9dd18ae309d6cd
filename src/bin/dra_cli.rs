//! `dra` — the one command-line front end to the DRA reproduction.
//!
//! ```text
//! dra run SPEC [flags]     run a registered sweep (`dra list`)
//! dra check PATH           validate a sweep artifact
//! dra list                 every registered sweep spec
//! dra repro FIGURE         regenerate a figure of the evaluation
//! dra reliability  --n 9 --m 4 --t 40000
//! dra availability --n 9 --m 4 --repair-hours 3
//! dra mttf         --n 6 --m 3
//! dra degradation  --n 6 --load 0.5 [--bus-gbps 40]
//! dra plan         --n 8 --target-nines 8 --repair-hours 3
//! dra simulate     --n 6 --load 0.3 --horizon-ms 5 --fail 0:sru:1 [--bdr]
//! ```
//!
//! Every subcommand parses through [`args::Args`]: unknown, repeated,
//! valueless and inapplicable flags are errors.

mod args;
mod repro;
mod sweeps;

use args::{Args, Grammar};
use dra::core::analysis::availability::{bdr_availability, dra_availability};
use dra::core::analysis::degradation::{figure8_series, DegradationParams};
use dra::core::analysis::nines::format_nines;
use dra::core::analysis::reliability::{
    bdr_reliability_model, dra_model, reliability_curve, DraParams,
};
use dra::core::sim::{DraConfig, DraRouter};
use dra::router::bdr::{BdrConfig, BdrRouter};
use dra::router::components::{ComponentKind, FailureRates};
use dra::router::metrics::{DropCause, RouterMetrics};
use std::process::ExitCode;

fn parse_component(s: &str) -> Result<ComponentKind, String> {
    match s.to_ascii_lowercase().as_str() {
        "piu" => Ok(ComponentKind::Piu),
        "pdlu" => Ok(ComponentKind::Pdlu),
        "sru" => Ok(ComponentKind::Sru),
        "lfe" => Ok(ComponentKind::Lfe),
        "bc" | "buscontroller" => Ok(ComponentKind::BusController),
        other => Err(format!("unknown component {other:?} (piu/pdlu/sru/lfe/bc)")),
    }
}

/// A `--fail lc:component:at_ms` specification.
fn parse_fail(spec: &str) -> Result<(u16, ComponentKind, f64), String> {
    let parts: Vec<&str> = spec.split(':').collect();
    if parts.len() != 3 {
        return Err(format!("--fail wants lc:component:at_ms, got {spec:?}"));
    }
    let lc: u16 = parts[0]
        .parse()
        .map_err(|_| format!("bad linecard index {:?}", parts[0]))?;
    let kind = parse_component(parts[1])?;
    let at_ms: f64 = parts[2]
        .parse()
        .map_err(|_| format!("bad time {:?}", parts[2]))?;
    Ok((lc, kind, at_ms))
}

fn cmd_reliability(args: &Args) -> Result<ExitCode, String> {
    let n: usize = args.get("--n", 9)?;
    let m: usize = args.get("--m", 4)?;
    let t: f64 = args.get("--t", 40_000.0)?;
    let model = dra_model(&DraParams::new(n, m));
    let r = reliability_curve(&model.chain, model.start, model.failed, &[t])[0];
    let bdr = bdr_reliability_model(&FailureRates::PAPER, None);
    let rb = reliability_curve(&bdr.chain, bdr.start, bdr.failed, &[t])[0];
    println!("R_DRA(N={n}, M={m}, t={t}h) = {r:.6}");
    println!("R_BDR(t={t}h)              = {rb:.6}");
    Ok(ExitCode::SUCCESS)
}

fn cmd_availability(args: &Args) -> Result<ExitCode, String> {
    let n: usize = args.get("--n", 9)?;
    let m: usize = args.get("--m", 4)?;
    let hours: f64 = args.get("--repair-hours", 3.0)?;
    if hours <= 0.0 {
        return Err("--repair-hours must be positive".into());
    }
    let mu = 1.0 / hours;
    let a = dra_availability(&DraParams::new(n, m), mu);
    let ab = bdr_availability(&FailureRates::PAPER, mu);
    println!(
        "A_DRA(N={n}, M={m}, repair={hours}h) = {} ({a:.12})",
        format_nines(a)
    );
    println!(
        "A_BDR(repair={hours}h)              = {} ({ab:.12})",
        format_nines(ab)
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_mttf(args: &Args) -> Result<ExitCode, String> {
    let n: usize = args.get("--n", 6)?;
    let m: usize = args.get("--m", 3)?;
    let model = dra_model(&DraParams::new(n, m));
    let analysis = dra::markov::absorbing::analyze(&model.chain)
        .map_err(|e| format!("absorbing analysis failed: {e}"))?;
    let mttf = analysis
        .mtta_from(model.start)
        .ok_or("start state is not transient")?;
    println!("MTTF_DRA(N={n}, M={m}) = {mttf:.0} h");
    println!(
        "MTTF_BDR              = {:.0} h",
        1.0 / FailureRates::PAPER.lc
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_degradation(args: &Args) -> Result<ExitCode, String> {
    let n: usize = args.get("--n", 6)?;
    let load: f64 = args.get("--load", 0.5)?;
    let bus_gbps: f64 = args.get("--bus-gbps", 40.0)?;
    if !(0.0..=1.0).contains(&load) || load == 0.0 {
        return Err("--load must be in (0, 1]".into());
    }
    let p = DegradationParams {
        n,
        c_lc_bps: 10e9,
        load,
        bus_capacity_bps: bus_gbps * 1e9,
    };
    println!(
        "B_faulty (% of required) for N={n}, L={:.0}%:",
        load * 100.0
    );
    for (x, pct) in figure8_series(&p) {
        println!("  X_faulty={x}: {pct:.1}%");
    }
    Ok(ExitCode::SUCCESS)
}

fn print_sim_report(m: &RouterMetrics, horizon: f64) {
    println!(
        "delivered {:.3} MB of {:.3} MB offered ({:.2}%)",
        m.total_delivered_bytes() as f64 / 1e6,
        m.total_offered_bytes() as f64 / 1e6,
        100.0 * m.byte_delivery_ratio()
    );
    for cause in DropCause::ALL {
        let d = m.total_drops(cause);
        if d > 0 {
            println!("  drops[{cause}] = {d}");
        }
    }
    let covered: u64 = m.lcs.iter().map(|l| l.covered_packets).sum();
    if covered > 0 {
        println!("  covered via EIB = {covered} packets");
    }
    for (i, lc) in m.lcs.iter().enumerate() {
        println!(
            "  LC{i}: offered={} delivered={} avail={:.4}",
            lc.offered_packets,
            lc.delivered_packets,
            lc.availability.average(horizon)
        );
    }
}

fn cmd_plan(args: &Args) -> Result<ExitCode, String> {
    use dra::core::analysis::planner::{
        max_load_for_full_coverage, max_repair_hours_for_availability, min_m_for_availability,
    };
    let n: usize = args.get("--n", 8)?;
    let target: usize = args.get("--target-nines", 8)?;
    let hours: f64 = args.get("--repair-hours", 3.0)?;
    if n < 3 || hours <= 0.0 || target == 0 {
        return Err("need --n >= 3, --repair-hours > 0, --target-nines >= 1".into());
    }
    let mu = 1.0 / hours;
    println!("Plan for N={n}, repair={hours}h, target {target} nines:");
    match min_m_for_availability(n, mu, target) {
        Some(m) => println!("  minimum same-protocol population M = {m}"),
        None => println!("  unreachable even with M = N = {n} at this repair speed"),
    }
    match max_repair_hours_for_availability(n, 2.min(n), target) {
        Some(h) => println!("  slowest repair at M=2 that still works: {h:.1} h"),
        None => println!("  M=2 cannot reach the target at any repair speed >= 30 min"),
    }
    println!("  full-coverage load headroom:");
    for x in 1..n.min(5) {
        println!(
            "    survive {x} simultaneous card failure(s) at full service up to L = {:.0}%",
            100.0 * max_load_for_full_coverage(n, x)
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_simulate(args: &Args) -> Result<ExitCode, String> {
    let n: usize = args.get("--n", 6)?;
    let load: f64 = args.get("--load", 0.3)?;
    let horizon_ms: f64 = args.get("--horizon-ms", 5.0)?;
    let seed: u64 = args.get("--seed", 42)?;
    let fails: Vec<(u16, ComponentKind, f64)> = args
        .value::<String>("--fail")?
        .map(|s| s.split(',').map(parse_fail).collect::<Result<_, _>>())
        .transpose()?
        .unwrap_or_default();
    for &(lc, _, at) in &fails {
        if lc as usize >= n {
            return Err(format!("--fail: linecard {lc} out of range (N={n})"));
        }
        if at < 0.0 || at > horizon_ms {
            return Err(format!("--fail: time {at} ms outside the horizon"));
        }
    }
    let horizon = horizon_ms * 1e-3;
    let base = BdrConfig {
        n_lcs: n,
        load,
        ..BdrConfig::default()
    };

    // Run the scripted scenario: advance to each failure time in order.
    let mut ordered = fails.clone();
    ordered.sort_by(|a, b| a.2.partial_cmp(&b.2).expect("finite times"));

    if args.switch("--bdr") {
        let mut sim = BdrRouter::simulation(base, seed);
        for (lc, kind, at_ms) in ordered {
            sim.run_until(at_ms * 1e-3);
            let now = sim.now();
            sim.model_mut().fail_component_now(lc, kind, now);
            println!("t={at_ms} ms: failed LC{lc} {kind}");
        }
        sim.run_until(horizon);
        println!("-- BDR --");
        print_sim_report(&sim.model().metrics, horizon);
    } else {
        let mut sim = DraRouter::simulation(
            DraConfig {
                router: base,
                ..Default::default()
            },
            seed,
        );
        for (lc, kind, at_ms) in ordered {
            sim.run_until(at_ms * 1e-3);
            let now = sim.now();
            sim.model_mut().fail_component_now(lc, kind, now);
            println!("t={at_ms} ms: failed LC{lc} {kind}");
        }
        sim.run_until(horizon);
        println!("-- DRA --");
        print_sim_report(&sim.model().metrics, horizon);
    }
    Ok(ExitCode::SUCCESS)
}

const USAGE: &str = "usage: dra <command> [args]

sweeps (names: dra list):
  dra run SPEC [--quick] [--workers N] [--seed S] [--out PATH | --no-out]
               [--cell-budget N] [--fresh] [--progress] [--csv] [--dry-run]
               [--replications R]        campaign specs only
               [--telemetry] [--telemetry-out PATH] [--trace-out PATH]
                                         campaign and topo specs
  dra check PATH
  dra list
figures:
  dra repro fig5|fig6|fig7|fig8|validate|ablation|latency|all [--quick]
analytic models and the single-router simulator:
  dra reliability  [--n N] [--m M] [--t HOURS]
  dra availability [--n N] [--m M] [--repair-hours H]
  dra mttf         [--n N] [--m M]
  dra degradation  [--n N] [--load L] [--bus-gbps G]
  dra plan         [--n N] [--target-nines K] [--repair-hours H]
  dra simulate     [--n N] [--load L] [--horizon-ms MS] [--seed S] [--bdr]
                   [--fail lc:piu|pdlu|sru|lfe|bc:at_ms[,lc:comp:ms...]]

`dra run` writes results/<spec>.json (topo specs: results/topo_<spec>.json)
and resumes an interrupted run from its .partial.jsonl checkpoint; --fresh
discards the checkpoint, --cell-budget N stops after N new cells. --dry-run
prints the expanded grid without simulating. --progress adds a heartbeat on
stderr. Telemetry is one dra-telemetry/v2 document (router and network
scopes, the frozen flight-recorder window, and the engine profile, the one
member that is not deterministic): --telemetry embeds it without the
profile in the artifact; --telemetry-out and --trace-out write it and a
Perfetto-loadable Chrome trace to separate files, leaving the artifact
byte-identical. Artifacts are byte-identical at every --workers count.
`dra check` exits 1 on an invalid artifact or any flagged cell.";

/// A subcommand body; `Err` is a usage error.
type Command = fn(&Args) -> Result<ExitCode, String>;

/// A grammar of valued flags only.
const fn options(valued: &'static [&'static str]) -> Grammar {
    Grammar {
        operands: &[],
        switches: &[],
        valued,
    }
}

/// Every subcommand with the grammar it parses.
const COMMANDS: [(&str, Grammar, Command); 10] = [
    ("run", sweeps::RUN, sweeps::run),
    ("check", sweeps::CHECK, sweeps::check),
    ("list", options(&[]), sweeps::list),
    ("repro", repro::REPRO, repro::repro),
    (
        "reliability",
        options(&["--n", "--m", "--t"]),
        cmd_reliability,
    ),
    (
        "availability",
        options(&["--n", "--m", "--repair-hours"]),
        cmd_availability,
    ),
    ("mttf", options(&["--n", "--m"]), cmd_mttf),
    (
        "degradation",
        options(&["--n", "--load", "--bus-gbps"]),
        cmd_degradation,
    ),
    (
        "plan",
        options(&["--n", "--target-nines", "--repair-hours"]),
        cmd_plan,
    ),
    (
        "simulate",
        Grammar {
            operands: &[],
            switches: &["--bdr"],
            valued: &["--n", "--load", "--horizon-ms", "--seed", "--fail"],
        },
        cmd_simulate,
    ),
];

/// Parse `raw` (the arguments after the command name) for `command`.
fn parse(command: &str, raw: &[String]) -> Result<(Command, Args), String> {
    let (_, grammar, body) = COMMANDS
        .iter()
        .find(|(name, _, _)| *name == command)
        .ok_or_else(|| format!("unknown command {command:?}"))?;
    Ok((*body, Args::parse(raw, grammar)?))
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = raw.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    if matches!(command.as_str(), "help" | "--help" | "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    match parse(command, &raw[1..]).and_then(|(body, args)| body(&args)) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}\n(`dra help` prints the usage)");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parse `line` (whitespace-separated) as the arguments of `command`.
    fn parse_for(command: &str, line: &str) -> Result<Args, String> {
        let raw: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(command, &raw).map(|(_, args)| args)
    }

    fn args(command: &str, line: &str) -> Args {
        parse_for(command, line).unwrap()
    }

    /// `dra run` flag validation for `line`, without running anything.
    fn check_run(line: &str) -> Result<(), String> {
        sweeps::check_flags(&args("run", line)).map(|_| ())
    }

    #[test]
    fn parse_key_values_and_flags() {
        let a = args("simulate", "--n 9 --bdr --load 0.5");
        assert_eq!(a.get::<usize>("--n", 0).unwrap(), 9);
        assert_eq!(a.get::<f64>("--load", 0.0).unwrap(), 0.5);
        assert_eq!(a.get::<u64>("--seed", 7).unwrap(), 7, "default applies");
        assert!(a.switch("--bdr"));
        assert!(!a.given("--fail"));
    }

    #[test]
    fn parse_rejects_bare_words() {
        assert!(parse_for("mttf", "n").is_err());
        assert!(parse_for("run", "faceoff fig8").is_err());
        assert!(parse_for("run", "").unwrap_err().contains("SPEC"));
    }

    #[test]
    fn parse_rejects_bad_numbers() {
        let a = args("mttf", "--n lots");
        assert!(a.get::<usize>("--n", 0).is_err());
        // A sweep needs at least one worker.
        for spec in ["smoke", "faceoff", "rareevent-quick"] {
            let err = check_run(&format!("{spec} --workers 0")).unwrap_err();
            assert!(err.contains("--workers"), "{err}");
            assert_eq!(check_run(&format!("{spec} --workers 1")), Ok(()));
        }
    }

    #[test]
    fn parse_rejects_unknown_repeated_and_valueless_flags() {
        let typo = parse_for("availability", "--repair-hour 30").unwrap_err();
        assert!(typo.contains("--repair-hour"), "{typo}");
        let twice = parse_for("mttf", "--n 3 --n 4").unwrap_err();
        assert!(twice.contains("twice"), "{twice}");
        for line in ["--n", "--n --m 2"] {
            let missing = parse_for("mttf", line).unwrap_err();
            assert!(missing.contains("needs a value"), "{missing}");
        }
        assert!(parse_for("run", "faceoff --trace t.json").is_err());
        assert!(parse_for("nope", "").is_err());
        // One router group runs every network: no kind takes the old
        // engine-width flag.
        for spec in ["faceoff", "rareevent", "scale"] {
            let gone = parse_for("run", &format!("{spec} --sim-threads 2")).unwrap_err();
            assert!(gone.contains("unknown flag"), "{gone}");
        }
    }

    #[test]
    fn contradictory_flags_conflict() {
        assert_eq!(check_run("faceoff"), Ok(()));
        let both = check_run("faceoff --out a.json --no-out").unwrap_err();
        assert!(both.contains("--no-out"), "{both}");
        for flag in [
            "--telemetry",
            "--telemetry-out t.json",
            "--trace-out t.json",
        ] {
            assert_eq!(check_run(&format!("faceoff {flag}")), Ok(()));
            let dry = check_run(&format!("faceoff {flag} --dry-run")).unwrap_err();
            assert!(dry.contains("--dry-run"), "{dry}");
        }
        assert!(check_run("nope").unwrap_err().contains("unknown spec"));
    }

    #[test]
    fn flags_a_kind_has_no_use_for_are_errors() {
        for line in [
            "resilience --replications 3",
            "rareevent --replications 3",
            "rareevent --telemetry",
            "rareevent --telemetry-out t.json",
            "rareevent --trace-out t.json",
        ] {
            let err = check_run(line).unwrap_err();
            let flag = line.split_whitespace().nth(1).unwrap();
            assert!(
                err.contains(flag) && err.contains("does not apply"),
                "{err}"
            );
        }
        for line in [
            "fig8 --replications 3 --telemetry",
            "scale2 --workers 1 --trace-out t.json",
            "resilience --telemetry",
            "smoke --fresh --cell-budget 1 --progress",
            "rareevent-quick --seed 9 --csv",
        ] {
            assert_eq!(check_run(line), Ok(()), "{line}");
        }
    }

    #[test]
    fn fail_spec_round_trip() {
        let (lc, kind, at) = parse_fail("3:sru:1.5").unwrap();
        assert_eq!((lc, kind, at), (3, ComponentKind::Sru, 1.5));
        assert!(parse_fail("3:sru").is_err());
        assert!(parse_fail("x:sru:1").is_err());
        assert!(parse_fail("3:cpu:1").is_err());
        assert!(parse_fail("3:sru:soon").is_err());
    }

    #[test]
    fn component_names() {
        assert_eq!(parse_component("PDLU").unwrap(), ComponentKind::Pdlu);
        assert_eq!(parse_component("bc").unwrap(), ComponentKind::BusController);
        assert!(parse_component("fan").is_err());
    }

    #[test]
    fn commands_run_end_to_end() {
        // Exercise each command body with small inputs.
        cmd_reliability(&args("reliability", "--n 4 --m 2 --t 1000")).unwrap();
        cmd_availability(&args("availability", "--n 4 --m 2 --repair-hours 3")).unwrap();
        cmd_mttf(&args("mttf", "--n 4 --m 2")).unwrap();
        cmd_degradation(&args("degradation", "--n 4 --load 0.5")).unwrap();
        cmd_plan(&args("plan", "--n 4 --target-nines 7 --repair-hours 3")).unwrap();
        let sim = "--n 3 --load 0.1 --horizon-ms 1";
        cmd_simulate(&args("simulate", &format!("{sim} --fail 0:lfe:0.3"))).unwrap();
        // The BDR flag routes to the baseline simulator.
        let bdr = format!("{sim} --bdr --fail 0:sru:0.3,1:lfe:0.5");
        cmd_simulate(&args("simulate", &bdr)).unwrap();
    }

    #[test]
    fn simulate_validates_fail_specs() {
        assert!(cmd_simulate(&args("simulate", "--n 3 --fail 9:sru:1")).is_err());
        assert!(cmd_simulate(&args("simulate", "--n 3 --fail 0:sru:99")).is_err());
    }
}
