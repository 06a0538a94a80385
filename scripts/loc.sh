#!/usr/bin/env bash
# Non-test source lines, the number ROADMAP tracks: over every .rs
# file under crates/*/src and src, the lines before the file's first
# `#[cfg(test)]` (the whole file when it has none).
#   scripts/loc.sh            total
#   scripts/loc.sh FILE...    one line per file, then their sum
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -gt 0 ]]; then
    files=("$@")
else
    mapfile -t files < <(find crates/*/src src -name '*.rs' | sort)
fi
awk -v per_file=$# '
    FNR == 1 { counting = 1 }
    /#\[cfg\(test\)\]/ { counting = 0 }
    counting { lines[FILENAME]++; total++ }
    END {
        if (per_file) for (f in lines) printf "%6d %s\n", lines[f], f | "sort -k2"
        close("sort -k2")
        printf "%6d non-test lines\n", total
    }' "${files[@]}"
