#!/usr/bin/env bash
# The test suites on a loaded box: starts K busy loops of its own and runs
# `cargo test --release --no-fail-fast` N times beside them, then prints
# one table of the tests that failed and how often. The loops are plain
# shell spins bounded by `timeout` and killed on exit; no priority, cgroup
# or other machine setting is touched.
#
#   scripts/stress.sh [-n RUNS] [-k LOOPS] [-- CARGO_TEST_ARGS...]
#
#   -n RUNS    test runs (default 5)
#   -k LOOPS   busy loops beside them (default: nproc)
#   CARGO_TEST_ARGS replace the default `--workspace`, e.g.
#     scripts/stress.sh -n 20 -- -p moat-serve --test daemon_e2e
#
# Logs go to target/stress/run-<i>.txt. Exits 1 if any run failed.
set -euo pipefail
cd "$(dirname "$0")/.."

runs=5
loops=$(nproc)
while getopts "n:k:" opt; do
    case $opt in
        n) runs=$OPTARG ;;
        k) loops=$OPTARG ;;
        *) sed -n '2,15p' "$0" >&2; exit 2 ;;
    esac
done
shift $((OPTIND - 1))
args=("$@")
[[ ${#args[@]} -gt 0 ]] || args=(--workspace)

# Build before loading the box: compile time is not what is under test.
cargo test --release --no-run -q "${args[@]}"

logs=target/stress
rm -rf "$logs"
mkdir -p "$logs"

pids=()
stop_loops() { [[ ${#pids[@]} -eq 0 ]] || kill "${pids[@]}" 2>/dev/null || true; }
trap stop_loops EXIT
for _ in $(seq "$loops"); do
    # Bounded even if this script is killed before its trap runs.
    timeout 86400 sh -c 'while :; do :; done' &
    pids+=($!)
done

failed_runs=0
for i in $(seq "$runs"); do
    start=$SECONDS
    rc=0
    cargo test --release --no-fail-fast "${args[@]}" >"$logs/run-$i.txt" 2>&1 || rc=$?
    echo "run $i/$runs: exit $rc, $((SECONDS - start)) s (k=$loops)" >&2
    [[ $rc -eq 0 ]] || failed_runs=$((failed_runs + 1))
done
stop_loops

# One row per failed test (its target's source, then its name), with the
# number of runs it failed in; a target that died without naming a test
# shows as `<target> (binary)`.
echo
echo "stress: $runs runs beside $loops busy loops, $failed_runs failed"
printf '%-80s %s\n' "failed test" "runs"
awk -v runs="$runs" '
    FNR == 1 { delete named }
    /^ *Running / { target = $0; sub(/^ *Running (unittests )?/, "", target); sub(/ \(.*/, "", target) }
    / \.\.\. FAILED$/ { fails[target "::" $2]++; named[target] = 1 }
    /^error: test failed, to rerun pass/ && !(target in named) { fails[target " (binary)"]++ }
    END {
        for (t in fails) printf "%-80s %d/%d\n", t, fails[t], runs
        if (length(fails) == 0) printf "%-80s %s\n", "(none)", "-"
    }' "$logs"/run-*.txt | sort
[[ $failed_runs -eq 0 ]]
