//! `dra repro FIGURE`: regenerate the paper's evaluation (Figs. 5–8)
//! and the reproduction's validation, ablation and latency studies.
//! `results/<FIGURE>.txt` holds each one's committed output.

mod ablation;
mod fig5;
mod fig6;
mod fig7;
mod fig8;
mod latency;
mod validate;

use crate::args::{Args, Grammar};
use std::process::ExitCode;

/// `dra repro FIGURE [--quick]`.
pub const REPRO: Grammar = Grammar {
    operands: &["FIGURE"],
    switches: &["--quick"],
    valued: &[],
};

/// A figure's printer; the flag is `--quick`, smaller sweeps where the
/// figure has them.
type Figure = fn(bool);

/// Every figure, in the order `dra repro all` prints them.
const FIGURES: [(&str, Figure); 7] = [
    ("fig5", |_| fig5::run()),
    ("fig6", fig6::run),
    ("fig7", |_| fig7::run()),
    ("fig8", |_| fig8::run()),
    ("validate", validate::run),
    ("ablation", |_| ablation::run()),
    ("latency", latency::run),
];

/// `dra repro FIGURE`: one figure, or `all` of them in order.
pub fn repro(args: &Args) -> Result<ExitCode, String> {
    let name = args.operand(0);
    let quick = args.switch("--quick");
    if name == "all" {
        for (name, figure) in FIGURES {
            println!("\n================ dra repro {name} ================");
            figure(quick);
        }
        println!("\nAll sections completed. See EXPERIMENTS.md for the reading guide.");
        return Ok(ExitCode::SUCCESS);
    }
    let (_, figure) = FIGURES.iter().find(|(n, _)| *n == name).ok_or_else(|| {
        let names: Vec<&str> = FIGURES.iter().map(|(n, _)| *n).collect();
        format!("unknown figure {name:?}; one of {}, all", names.join(", "))
    })?;
    figure(quick);
    Ok(ExitCode::SUCCESS)
}
