#!/usr/bin/env bash
# The DRA benchmark's one command.
#
#   benchmark/run.sh --workload W [--seed N] [--seconds S] [--trace 0|1]
#                    [--trace-out PATH] [--record-dir DIR]
#   benchmark/run.sh agree DIR_A DIR_B
#
# Builds the benchmark offline (its own cargo workspace; the target
# directory is $CARGO_TARGET_DIR when set, else benchmark/target), then
# runs one workload in one process. Build output goes to stderr, so the
# last stdout line is the run's JSON result. Exits non-zero if the
# build or any correctness check fails.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" 1>&2

bin="$target/release/dra-benchmark"
if [[ "${1:-}" == "agree" ]]; then
    exec "$bin" "$@"
fi
# Address-space randomisation moves the heap and stacks by a few pages
# per process, which alone swings a small process's peak RSS by ~8%
# between runs; measure with a fixed layout where the host allows it.
if setarch -R true 2>/dev/null; then
    exec setarch -R "$bin" --root "$here/.." "$@"
fi
exec "$bin" --root "$here/.." "$@"
