//! Stochastic fault-injection campaign on the packet-level simulators.
//!
//! ```sh
//! cargo run --release --example fault_injection          # full grid
//! cargo run --release --example fault_injection -- --quick
//! ```
//!
//! Runs the built-in `faceoff` campaign: BDR and DRA side by side
//! under accelerated random component failures. Cells sharing a seed
//! group replay *byte-identical* offered traffic and fault timelines
//! on both architectures, then the engine reduces replications to
//! delivery/latency/availability aggregates. This is the experiment
//! the paper could not run: its evaluation was Markov models only.

use dra::campaign::engine::{run, RunOptions};
use dra::campaign::json::Json;
use dra::campaign::registry;
use dra::campaign::report::{artifact_table, print_table};
use dra::campaign::Sweep;

fn cell_delivery(cell: &Json) -> f64 {
    cell.get("delivery")
        .and_then(|d| d.get("mean"))
        .and_then(Json::as_f64)
        .unwrap_or(f64::NAN)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let spec = registry::build("faceoff", quick).expect("built-in faceoff spec");
    println!("Fault-injection campaign `{}`:", spec.name);
    println!("  {}", spec.description);
    println!(
        "  {} cells, master seed {}, digest {}",
        spec.cells.len(),
        spec.master_seed,
        spec.digest()
    );

    let outcome = run(&spec, &RunOptions::default()).expect("campaign runs");
    let artifact = outcome.artifact.expect("campaign completed");
    let (headers, rows) = artifact_table(&artifact);
    print_table(
        "BDR vs DRA under identical sampled fault/repair schedules",
        &headers,
        &rows,
    );

    // Paired contrast: cells come in (BDR, DRA) pairs per load.
    let cells = artifact
        .get("cells")
        .and_then(Json::as_arr)
        .expect("artifact cells");
    println!();
    for (pair, &load) in cells.chunks(2).zip(registry::faceoff_loads(quick)) {
        let (bdr, dra) = (cell_delivery(&pair[0]), cell_delivery(&pair[1]));
        println!(
            "  load {:>3.0}%: DRA recovers {:.2} points of delivery over BDR \
             ({:.2}% -> {:.2}%)",
            load * 100.0,
            100.0 * (dra - bdr),
            100.0 * bdr,
            100.0 * dra,
        );
    }

    println!("\nReading: under the same offered traffic and the same fault");
    println!("timelines, DRA converts most of BDR's ingress/egress-down losses");
    println!("into covered deliveries over the EIB; its availability only dips");
    println!("when the EIB itself (or a PIU) is down, or no same-protocol peer");
    println!("remains.");
}
