#!/usr/bin/env bash
# The paper's reproduction: runs the twelve paper benches of crates/bench
# (Figs. 1/2/8/9, Tables II/III/V/VI, the ablations and the three extension
# studies) and writes REPRO.json at the repo root — per bench its exit
# status and its stdout lines. Every bench runs on fixed seeds, so the file
# is byte-stable and scripts/check.sh fails when it differs from the
# committed one. All twelve always run — a bench that fails to build counts
# as failed — and the exit status is non-zero when any of them failed.
# Takes no arguments.
set -euo pipefail
cd "$(dirname "$0")/.."

benches=(fig1_tradeoff fig2_heatmap fig8_scatter fig9_fronts
    table2_tiles table3_pareto table5_kernels table6_compare
    ablation validation tri_objective warmstart)

out=$(mktemp)
trap 'rm -f "$out"' EXIT

status=0
{
    printf '{\n  "benches": ['
    sep=''
    for b in "${benches[@]}"; do
        code=0
        cargo bench -q -p moat-bench --bench "$b" > "$out" || code=$?
        if [[ $code != 0 ]]; then
            echo "repro: $b exited $code" >&2
            status=1
        fi
        printf '%s\n    {\n      "bench": "%s",\n      "exit": %d,\n      "stdout": [' \
            "$sep" "$b" "$code"
        lsep=''
        while IFS= read -r line || [[ -n $line ]]; do
            # A JSON string: escape backslashes first, then quotes and tabs.
            line=${line//\\/\\\\}
            line=${line//\"/\\\"}
            line=${line//$'\t'/\\t}
            printf '%s\n        "%s"' "$lsep" "$line"
            lsep=','
        done < "$out"
        printf '\n      ]\n    }'
        sep=','
    done
    printf '\n  ]\n}\n'
} > REPRO.json
exit "$status"
