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
use dra::campaign::record::result_table;
use dra::campaign::report::print_table;
use dra::campaign::sweep::records;
use dra::campaign::{registry, CellSpec};

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
    let cells = records::<CellSpec>(&artifact).expect("a validated artifact");
    let (headers, rows) = result_table(&cells);
    print_table(
        "BDR vs DRA under identical sampled fault/repair schedules",
        &headers,
        &rows,
    );

    // Paired contrast: cells come in (BDR, DRA) pairs per load.
    println!();
    for (pair, &load) in cells.chunks(2).zip(registry::faceoff_loads(quick)) {
        let (bdr, dra) = (pair[0].record.delivery.mean, pair[1].record.delivery.mean);
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
