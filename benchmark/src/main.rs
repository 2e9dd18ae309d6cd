//! End-to-end and per-layer benchmark of the DRA sweep workloads.
//!
//! ```text
//! dra-benchmark --root DIR --workload W [--seed N] [--seconds S]
//!               [--trace 0|1] [--trace-out PATH] [--record-dir DIR]
//! dra-benchmark agree DIR_A DIR_B
//! ```
//!
//! `benchmark/run.sh` builds this binary and passes `--root`. A run
//! prints `name value unit` per metric and, as its last stdout line,
//! one JSON object `{correct, attempted, failed, metrics}`. It exits 1
//! when any correctness check fails. See `benchmark/README.md`.

mod agree;
mod alloc;
mod host;
mod layers;
mod metrics;
mod trace;
mod workload;

use dra_campaign::json::Json;
use host::status_kib;
use metrics::{end_to_end_defs, median, metrics_json, per_layer_defs, Checks, Values};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use workload::{fnv64, Spec, Workload};

#[global_allocator]
static GLOBAL: alloc::CountingAllocator = alloc::CountingAllocator;

/// The set-up phase repeats at least this many times...
const SETUP_PASSES_MIN: usize = 3;
/// ...and until this much construction time has accumulated, so the
/// millisecond faceoff set-up still yields a steady median.
const SETUP_MIN_S: f64 = 1.0;
/// Sweeps every untraced run times, however short `--seconds` is, so
/// `wall_s` is always a median of at least two.
const MIN_SWEEPS: u64 = 2;

struct Args {
    root: PathBuf,
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
    record_dir: Option<PathBuf>,
}

const USAGE: &str = "usage: dra-benchmark --root DIR --workload W [--seed N] [--seconds S] \
                     [--trace 0|1] [--trace-out PATH] [--record-dir DIR]\n       \
                     dra-benchmark agree DIR_A DIR_B";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut root = None;
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (0u64, 10.0f64, false);
    let (mut trace_out, mut record_dir) = (None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--root" => root = Some(PathBuf::from(value()?)),
            "--workload" => {
                let name = value()?;
                workload = Some(workload::find(name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds >= 0.0) {
                    return Err("--seconds must be a nonnegative number".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value()?)),
            "--record-dir" => record_dir = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        root: root.ok_or("--root is required")?,
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        trace_out,
        record_dir,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("agree") {
        let [_, a, b] = argv.as_slice() else {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        };
        return match agree::agree(Path::new(a), Path::new(b)) {
            Ok((report, ok)) => {
                print!("{report}");
                if ok {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            Err(e) => {
                eprintln!("agree: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Every committed artifact must be readable before anything runs:
    // a checkout without them cannot check correctness.
    for &(_, file) in args.workload.specs {
        if !args.root.join(file).is_file() {
            eprintln!("missing {}", args.root.join(file).display());
            return ExitCode::from(2);
        }
    }
    run(&args)
}

fn run(args: &Args) -> ExitCode {
    let w = args.workload;
    let mut checks = Checks::default();
    let mut digests: Vec<(String, String)> = Vec::new();
    let (values, defs) = if args.trace {
        // On a thread of its own, like the set-up phase: building
        // N >= 512 networks on the main thread's heap grows RSS by GBs
        // per pass (see README, "First readings").
        let (values, tracer) = std::thread::scope(|s| {
            s.spawn(|| layers::traced_run(w, args.seed, &args.root, &mut checks))
                .join()
                .expect("traced run panicked")
        });
        let path = args.trace_out.clone().unwrap_or_else(|| {
            args.root
                .join("benchmark/out")
                .join(format!("trace-{}-seed{}.json", w.name, args.seed))
        });
        let doc = Json::obj(vec![
            ("workload", Json::Str(w.name.into())),
            ("seed", Json::Num(args.seed as f64)),
            ("spans", tracer.to_json()),
        ]);
        let written = write_file(&path, &doc.to_string_compact());
        checks.check(written.is_ok(), || {
            format!("trace-out {}: {written:?}", path.display())
        });
        (values, per_layer_defs())
    } else {
        let values = untraced_run(w, args, &mut checks, &mut digests);
        (values, end_to_end_defs())
    };

    for (key, hex) in &digests {
        println!("digest {key} {hex}");
    }
    for ((name, value), (_, unit)) in values.iter().zip(&defs) {
        println!("{name} {value} {unit}");
    }
    println!("fail_frac {} ratio", checks.fail_frac());
    let metrics = metrics_json(&defs, &values);
    let correct = checks.failed == 0;
    if let Some(dir) = &args.record_dir {
        let record = Json::obj(vec![
            ("workload", Json::Str(w.name.into())),
            ("seed", Json::Num(args.seed as f64)),
            ("trace", Json::Bool(args.trace)),
            ("seconds", Json::Num(args.seconds)),
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(checks.attempted as f64)),
            ("failed", Json::Num(checks.failed as f64)),
            ("metrics", metrics.clone()),
            (
                "digests",
                Json::Obj(
                    digests
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                        .collect(),
                ),
            ),
        ]);
        let mode = if args.trace { "traced" } else { "untraced" };
        let path = dir.join(format!("{}.seed{}.{mode}.json", w.name, args.seed));
        if let Err(e) = write_file(&path, &record.to_string_pretty()) {
            eprintln!("record {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    let line = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(checks.attempted as f64)),
        ("failed", Json::Num(checks.failed as f64)),
        ("metrics", metrics),
    ]);
    println!("{}", line.to_string_compact());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn write_file(path: &Path, text: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}

/// The untraced run: set-up phase, then timed sweeps for `--seconds`
/// (at least [`MIN_SWEEPS`]), then checks. Returns the end-to-end
/// values.
fn untraced_run(
    w: &Workload,
    args: &Args,
    checks: &mut Checks,
    digests: &mut Vec<(String, String)>,
) -> Values {
    let sweep0: Vec<Spec> = w
        .specs
        .iter()
        .map(|&(name, _)| Spec::build(w.family, name, args.seed, 0))
        .collect();

    // Set-up phase, single-threaded: construct every replication of
    // sweep 0, several times; the median pass is `setup_s`. It runs on
    // a thread of its own, as the engine's pool workers build cells.
    let passes = std::thread::scope(|s| {
        s.spawn(|| {
            let mut passes = Vec::new();
            let started = Instant::now();
            while passes.len() < SETUP_PASSES_MIN || started.elapsed().as_secs_f64() < SETUP_MIN_S {
                passes.push(sweep0.iter().map(Spec::construct_all).sum::<f64>());
            }
            passes
        })
        .join()
        .expect("set-up phase panicked")
    });
    let setup_s = median(&passes);
    let peak_rss_mb = status_kib("VmHWM") as f64 / 1024.0;

    let mut sweep_times = Vec::new();
    let started = Instant::now();
    let mut sweep = 0u64;
    while sweep < MIN_SWEEPS || started.elapsed().as_secs_f64() < args.seconds {
        let specs: Vec<Spec> = match sweep {
            0 => sweep0.clone(),
            k => w
                .specs
                .iter()
                .map(|&(name, _)| Spec::build(w.family, name, args.seed, k))
                .collect(),
        };
        let t = Instant::now();
        let runs: Vec<_> = specs
            .iter()
            .map(|s| s.run_engine(w.workers, w.sim_threads))
            .collect();
        sweep_times.push(t.elapsed().as_secs_f64());
        for ((spec, run), &(name, committed)) in specs.iter().zip(runs).zip(w.specs) {
            let run = match run {
                Ok(run) => run,
                Err(e) => {
                    checks.check(false, || format!("{name}/{sweep}: engine run failed: {e}"));
                    continue;
                }
            };
            let pinned = (args.seed == 0 && sweep == 0).then(|| args.root.join(committed));
            run.check(
                &format!("{name}/{sweep}"),
                spec.validate(&run.text),
                pinned.as_deref(),
                checks,
            );
            digests.push((format!("{name}/{sweep}"), fnv64(&run.text)));
        }
        sweep += 1;
    }

    // The parallel engine must reproduce the serial kernel's bytes. At
    // seed 0 the committed artifacts already pin that; elsewhere sweep 0
    // is re-run serially (untimed) and the digests compared.
    if w.sim_threads > 1 && args.seed != 0 {
        for spec in &sweep0 {
            let key = format!("{}/0", spec.name());
            let want = digests
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, d)| d.clone());
            let got = spec.run_engine(w.workers, 1).map(|r| fnv64(&r.text));
            checks.check(want.is_some() && got.as_ref().ok() == want.as_ref(), || {
                format!("{key}: parallel digest {want:?} != serial {got:?}")
            });
        }
    }

    eprintln!("{}: {} set-up passes, {sweep} sweeps", w.name, passes.len());
    let wall_s = median(&sweep_times);
    let sim_s: f64 = sweep0.iter().map(Spec::sim_seconds).sum();
    vec![
        ("wall_s", wall_s),
        ("sim_s_per_s", metrics::ratio(sim_s, wall_s)),
        ("setup_s", setup_s),
        ("peak_rss_mb", peak_rss_mb),
    ]
}
