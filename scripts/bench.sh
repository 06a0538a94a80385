#!/usr/bin/env bash
# Evaluation-throughput baseline runner.
#
# Full mode (default) runs the `eval_throughput` bench at paper-scale
# instances and rewrites `BENCH_eval.json` at the repo root — commit the
# result so the hot-loop numbers are tracked across PRs.
#
# `--smoke` shrinks every instance to a few milliseconds for CI and writes
# the JSON under `target/` instead; smoke numbers are load-check noise and
# must never be committed as a baseline.
set -euo pipefail
cd "$(dirname "$0")/.."

# cargo runs bench binaries from the package directory, so hand the bench
# an absolute output path.
root="$(pwd)"
args=()
out="$root/BENCH_eval.json"
if [[ "${1:-}" == "--smoke" ]]; then
    args+=(--smoke)
    out="$root/target/BENCH_eval.smoke.json"
    mkdir -p target
elif [[ -n "${1:-}" ]]; then
    echo "usage: $0 [--smoke]" >&2
    exit 2
fi

cargo bench -q -p moat-bench --bench eval_throughput -- "${args[@]}" --json "$out"
