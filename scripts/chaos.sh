#!/usr/bin/env bash
# Kill-and-resume determinism gate.
#
# For every strategy, runs the same fixed-seed tuning job three ways:
#   1. uninterrupted (the reference),
#   2. with checkpointing, aborted (SIGABRT via --crash-after) mid-run,
#   3. resumed from the checkpoint the crashed run left behind,
# and asserts the resumed run's stdout and emitted version table are
# byte-identical to the reference.
set -euo pipefail
cd "$(dirname "$0")/.."
root="$(pwd)"

cargo build --release -q --bin moat-tune
bin="$root/target/release/moat-tune"

work="$root/target/chaos"
rm -rf "$work"

# Per-strategy arguments, each sized so the run is still going after its
# 3rd checkpoint: grid checkpoints once per 512-config chunk, so its budget
# must exceed 3 x 512; wsum once per weight sweep of about 320 evaluations.
declare -A extra=(
    [grid]="--budget 2000"
    [random]="--budget 400"
    [gde3]="--generations 8 --budget 400"
    [nsga2]="--budget 400"
    [rs-gde3]="--generations 8 --budget 400"
    [wsum]="--budget 1200"
)

for strategy in grid random gde3 nsga2 rs-gde3 wsum; do
    dir="$work/$strategy"
    mkdir -p "$dir/ref" "$dir/crash" "$dir/resume"
    # Emitted paths appear verbatim in stdout, so every run uses the same
    # relative file name from its own directory.
    read -ra more <<< "${extra[$strategy]}"
    args=(--kernel mm --size 96 --machine westmere --strategy "$strategy"
        --seed 42 "${more[@]}" --quiet --emit-json table.json)

    echo "== $strategy: reference run (uninterrupted) =="
    (cd "$dir/ref" && "$bin" "${args[@]}" >stdout.txt)

    echo "== $strategy: crash run (abort after the 3rd checkpoint) =="
    rc=0
    (cd "$dir/crash" && "$bin" "${args[@]}" \
        --checkpoint ckpt.json --crash-after 3 >stdout.txt 2>stderr.txt) || rc=$?
    if [[ $rc -eq 0 ]]; then
        echo "chaos.sh: $strategy crash run finished without crashing; --crash-after too high?" >&2
        exit 1
    fi
    if [[ ! -f "$dir/crash/ckpt.json" ]]; then
        echo "chaos.sh: $strategy crashed run left no checkpoint behind" >&2
        exit 1
    fi

    echo "== $strategy: resumed run =="
    (cd "$dir/resume" && "$bin" "${args[@]}" --resume ../crash/ckpt.json >stdout.txt)

    echo "== $strategy: byte-compare resumed output against the reference =="
    cmp "$dir/ref/stdout.txt" "$dir/resume/stdout.txt"
    cmp "$dir/ref/table.json" "$dir/resume/table.json"
done

echo "chaos.sh: all checks passed."
