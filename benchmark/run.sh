#!/usr/bin/env bash
# The one command of the benchmark (see benchmark/README.md):
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   one run; the result is the last stdout line
#   benchmark/run.sh [--seed N] [--workload W] [--smoke]             every workload, untraced then traced
#   benchmark/run.sh compare A.json B.json                           apply BENCHMARK.json's bounds to two result files
#
# Builds moat-tune, moat-serve and the harness (release) first; cargo's
# output goes to stderr so stdout carries results only.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
if [ ! -f "$root/Cargo.toml" ] || [ ! -d "$root/crates" ]; then
    echo "benchmark/run.sh: $root is not the moat workspace, nothing to measure" >&2
    exit 2
fi

# cargo resolves a relative CARGO_TARGET_DIR against its own working
# directory, so pin it down before the two builds.
target=${CARGO_TARGET_DIR:-$here/target}
case $target in
    /*) ;;
    *) target=$PWD/$target ;;
esac
export CARGO_TARGET_DIR=$target

build_start=$(date +%s)
cargo build --release --offline --manifest-path "$root/Cargo.toml" --bin moat-tune --bin moat-serve >&2
cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2
echo "benchmark/run.sh: build took $(($(date +%s) - build_start)) s" >&2

export MOAT_BENCH_DIR=$here
export MOAT_BENCH_BIN_DIR=$target/release
# Not exec: the harness reports the peak RSS of its own children, and a
# process that replaced this shell would inherit cargo and rustc as such.
"$target/release/moat-benchmark" "$@"
