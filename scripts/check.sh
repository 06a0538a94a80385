#!/usr/bin/env bash
# Repo health gate: formatting, lints (warnings are errors), full test suite.
# Run from anywhere; operates on the workspace root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --all --check =="
cargo fmt --all --check

echo "== cargo clippy (workspace, all targets, -D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

# Every append and every atomic replace goes through moat_archive::file, so
# its crash points are the only ones to enumerate. Non-test code is what
# scripts/loc.sh counts: a file's lines before its first #[cfg(test)].
echo "== durable writes only in crates/archive/src/file.rs =="
stray=$(find crates/*/src src -name '*.rs' ! -path crates/archive/src/file.rs | sort |
    xargs awk '
        FNR == 1 { counting = 1 }
        /#\[cfg\(test\)\]/ { counting = 0 }
        counting && /sync_all|sync_data|fs::rename|\.append\(true\)/ {
            print FILENAME ":" FNR ": " $0
        }')
if [[ -n "$stray" ]]; then
    echo "hand-rolled durable writes (use moat_archive::file):" >&2
    echo "$stray" >&2
    exit 1
fi

echo "== cargo test (workspace, default test threads) =="
cargo test -q --workspace

echo "== cargo test (workspace, --test-threads=1) =="
cargo test -q --workspace -- --test-threads=1

# The column-blocked kernel bodies vectorise only when optimised, so the
# debug runs above check a different program than the one that is timed.
echo "== cargo test --release -p moat-kernels =="
cargo test -q --release -p moat-kernels

# The benchmark times the optimised build, so the search trajectories it
# produces are held to the committed fixture, and the ranking, signature
# and footprint rewrites to their references, in that build too.
echo "== cargo test --release: trajectory fixture and equivalence tests =="
cargo test -q --release --test trajectories
cargo test -q --release -p moat-core --test equivalence
cargo test -q --release -p moat-machine --lib footprint::
cargo test -q --release -p moat-ir --lib expr::

# The same holds for the cache simulator `cachesim-validate` times: its
# properties, the streaming oracle and the counter fixture, optimised.
echo "== cargo test --release: cache simulator, streaming oracle, counter fixture =="
cargo test -q --release -p moat-cachesim
cargo test -q --release --test streaming_equivalence
cargo test -q --release --test cachesim_counters

# The legality oracle holds the dependence test and every skeleton the
# Analyzer builds to brute-forced dependences; the optimised build is the
# one the tuner and the benchmark run.
echo "== cargo test --release: legality oracle =="
cargo test -q --release -p moat-ir --test legality_oracle

# Every front comparison in moat_bench is scored against the exact fronts;
# recomputing all ten (the paper grid at every thread count, then a descent)
# is only affordable optimised, so the fixture is held to them here.
echo "== cargo test --release: exact reference fronts =="
cargo test -q --release -p moat-bench --test oracle_fronts

# Traces are per-run handles, so a traced and an untraced test sharing a
# process must never see each other; a scheduling-dependent relapse should
# fail here, not in review.
echo "== cargo test --test observability x20 =="
for _ in $(seq 20); do
    cargo test -q --test observability
done

# `BatchEval::run` starts no thread before its caller has claimed work, so
# the caller is a worker of every such batch however the scheduler treats it; a
# second process spinning beside the tests is what used to make that rare
# interleaving happen.
echo "== cargo test --test analytic_allocations x200, beside a busy process =="
( while :; do :; done ) &
busy=$!
trap 'kill "$busy" 2> /dev/null || true' EXIT
for _ in $(seq 200); do
    cargo test -q --test analytic_allocations
done
# The daemon's append logs (job journal, artifact log, deposit logs, service
# logs) share one primitive, moat_archive::file::AppendLog: its crash-point
# enumerations, a result read while others append and a deposit racing the
# compactor's fold, under the same squeeze.
echo "== append-log tests x200, beside a busy process =="
for _ in $(seq 200); do
    cargo test -q -p moat-serve --lib -- journal:: artifacts:: a_deposit_during_a_fold \
        every_cut_of_a_service_log
done
kill "$busy"
trap - EXIT

echo "== trace smoke (moat-tune --trace -> moat-report --validate) =="
smoke="target/trace-smoke"
mkdir -p "$smoke"
cargo run -q --bin moat-tune -- --budget 64 --quiet \
    --trace "$smoke/trace.jsonl" --metrics "$smoke/metrics.prom"
cargo run -q --bin moat-report -- "$smoke/trace.jsonl" --validate
cargo run -q --bin moat-report -- "$smoke/trace.jsonl" > "$smoke/report.txt"
cargo run -q --bin moat-report -- "$smoke/trace.jsonl" \
    --emit chrome --out "$smoke/trace.chrome.json"

echo "== backend-matrix smoke (config x backend tuning, loss matrix, merge guard) =="
bsmoke="target/backend-smoke"
rm -rf "$bsmoke"
mkdir -p "$bsmoke"
# Two-backend tune: the version table must carry both provenances.
cargo run -q --bin moat-tune -- --kernel mm --size 160 --generations 12 --quiet \
    --backends model,alt1 --emit-json "$bsmoke/table.json" \
    --archive "$bsmoke/mixed"
grep -q '"analytic:alt1"' "$bsmoke/table.json"
grep -q '"analytic:model"' "$bsmoke/table.json"
# The cross-backend loss matrix renders from the emitted table.
cargo run -q --bin moat-report -- "$bsmoke/table.json" --emit loss-matrix \
    | grep -q "analytic:model"
# Merge guard: combining a single-backend archive into the mixed one must
# refuse without --merge-across-backends and succeed with it.
cargo run -q --bin moat-tune -- --kernel mm --size 160 --generations 12 --quiet \
    --archive "$bsmoke/plain"
if cargo run -q --bin moat-archive -- merge \
    --archive "$bsmoke/mixed" --from "$bsmoke/plain" 2>/dev/null; then
    echo "ERROR: cross-backend merge succeeded without --merge-across-backends" >&2
    exit 1
fi
cargo run -q --bin moat-archive -- merge \
    --archive "$bsmoke/mixed" --from "$bsmoke/plain" --merge-across-backends > /dev/null

echo "== surrogate smoke (cold tune -> archive -> screened tune beats cold E at >= hv) =="
susmoke="target/surrogate-smoke"
rm -rf "$susmoke"
mkdir -p "$susmoke"
# Cold leg records the archive the surrogate will be primed from. Capture the
# whole output and slice afterwards: piping into head would SIGPIPE the second
# "surrogate stats:" line.
cold=$(cargo run -q --bin moat-tune -- --kernel mm --size 160 --generations 12 \
    --quiet --archive "$susmoke/arc")
cold=${cold%%$'\n'*}
# Screened leg: warm start + surrogate compound against the same archive.
sur=$(cargo run -q --bin moat-tune -- --kernel mm --size 160 --generations 12 \
    --quiet --archive "$susmoke/arc" --warm-start --surrogate)
sur=${sur%%$'\n'*}
echo "cold: $cold"
echo "surr: $sur"
cold_e=$(sed -n 's/.* E=\([0-9]*\).*/\1/p' <<< "$cold")
sur_e=$(sed -n 's/.* E=\([0-9]*\).*/\1/p' <<< "$sur")
cold_hv=$(sed -n 's/.*self-hv=\([0-9.]*\).*/\1/p' <<< "$cold")
sur_hv=$(sed -n 's/.*self-hv=\([0-9.]*\).*/\1/p' <<< "$sur")
awk -v ce="$cold_e" -v se="$sur_e" -v ch="$cold_hv" -v sh="$sur_hv" 'BEGIN {
    if (se >= ce) { print "ERROR: surrogate E (" se ") not below cold E (" ce ")"; exit 1 }
    if (sh + 1e-9 < ch) { print "ERROR: surrogate hv (" sh ") below cold hv (" ch ")"; exit 1 }
}'

echo "== serve smoke (dedupe -> metrics -> SIGTERM -> resume byte-identity -> kill -9 recovery, before and after a checkpoint) =="
ssmoke="target/serve-smoke"
rm -rf "$ssmoke"
mkdir -p "$ssmoke"
cargo build -q --bin moat-serve --bin moat-loadgen --bin moat-report
serve_bin=target/debug/moat-serve
lg=target/debug/moat-loadgen
spec_big='{"tenant":"ci","kernel":"mm","size":64,"machine":"westmere","strategy":"random","budget":4096,"seed":11}'
spec_dup='{"tenant":"ci2","kernel":"mm","size":64,"machine":"westmere","strategy":"random","budget":4096,"seed":11}'
spec_small='{"tenant":"ci","kernel":"dsyrk","size":64,"machine":"westmere","strategy":"random","budget":32,"seed":1}'

wait_port() { # port_file -> addr on stdout
    for _ in $(seq 200); do
        [[ -s "$1" ]] && { cat "$1"; return 0; }
        sleep 0.05
    done
    echo "daemon never wrote $1" >&2
    return 1
}
wait_done() { # addr job
    for _ in $(seq 600); do
        "$lg" --addr "$1" --get "/jobs/$2" | grep -q '"status":"Done"' && return 0
        sleep 0.1
    done
    echo "job $2 never finished" >&2
    return 1
}

# Reference: the same job run to completion without interruption.
"$serve_bin" --listen 127.0.0.1:0 --state "$ssmoke/ref" \
    --port-file "$ssmoke/ref.port" 2> "$ssmoke/ref.log" &
ref_pid=$!
ref_addr=$(wait_port "$ssmoke/ref.port")
"$lg" --addr "$ref_addr" --post /jobs "$spec_big" > /dev/null
wait_done "$ref_addr" j0001
"$lg" --addr "$ref_addr" --get /jobs/j0001/result > "$ssmoke/ref-result.json"
"$lg" --addr "$ref_addr" --post /shutdown > /dev/null
wait "$ref_pid"

# Live run: two identical submissions coalesce, a distinct one does not.
"$serve_bin" --listen 127.0.0.1:0 --state "$ssmoke/run" \
    --port-file "$ssmoke/run.port" 2> "$ssmoke/run.log" &
run_pid=$!
run_addr=$(wait_port "$ssmoke/run.port")
"$lg" --addr "$run_addr" --post /jobs "$spec_big" | grep -q '"deduped":false'
"$lg" --addr "$run_addr" --post /jobs "$spec_dup" | grep -q '"deduped":true'
"$lg" --addr "$run_addr" --post /jobs "$spec_small" | grep -q '"deduped":false'
"$lg" --addr "$run_addr" --get /metrics | grep -q '^serve_jobs_submitted_total 3$'
"$lg" --addr "$run_addr" --get /metrics | grep -q '^serve_jobs_deduped_total 1$'
# SIGTERM once the long job has a checkpoint on disk to resume from.
for _ in $(seq 600); do
    ls "$ssmoke/run/ckpt/"*.ckpt > /dev/null 2>&1 && break
    sleep 0.02
done
kill -TERM "$run_pid"
wait "$run_pid"
# Restart on the same state dir: the parked session resumes and the final
# result is byte-identical to the uninterrupted reference.
"$serve_bin" --listen 127.0.0.1:0 --state "$ssmoke/run" \
    --port-file "$ssmoke/run2.port" 2> "$ssmoke/run2.log" &
run2_pid=$!
run2_addr=$(wait_port "$ssmoke/run2.port")
wait_done "$run2_addr" j0001
wait_done "$run2_addr" j0003
"$lg" --addr "$run2_addr" --get /jobs/j0001/result > "$ssmoke/run-result.json"
cmp "$ssmoke/ref-result.json" "$ssmoke/run-result.json"
cargo run -q --bin moat-report -- --from-serve "$ssmoke/run" > "$ssmoke/serve-report.txt"
grep -q "Tenant ci2" "$ssmoke/serve-report.txt"
"$lg" --addr "$run2_addr" --post /shutdown > /dev/null
wait "$run2_pid"
# What those jobs left is in the logs the daemon keeps open: no file per
# job, no directory of the layout before.
for state in "$ssmoke/ref" "$ssmoke/run"; do
    [[ -s "$state/artifacts.log" ]]
    [[ -z $(find "$state" -name results -o -name traces -o -name incoming) ]]
done
# kill -9 the moment the last 202 is read: every acknowledged job is in the
# row journal, so the restart lists them all, finishes every primary, and
# equal fingerprints still read byte-identical results.
"$serve_bin" --listen 127.0.0.1:0 --state "$ssmoke/kill" \
    --port-file "$ssmoke/kill.port" 2> "$ssmoke/kill.log" &
kill_pid=$!
kill_addr=$(wait_port "$ssmoke/kill.port")
"$lg" --addr "$kill_addr" --post /jobs "$spec_big" > /dev/null
"$lg" --addr "$kill_addr" --post /jobs "$spec_dup" > /dev/null
"$lg" --addr "$kill_addr" --post /jobs "$spec_small" > /dev/null
kill -KILL "$kill_pid"
wait "$kill_pid" || true
"$serve_bin" --listen 127.0.0.1:0 --state "$ssmoke/kill" \
    --port-file "$ssmoke/kill2.port" 2> "$ssmoke/kill2.log" &
kill2_pid=$!
kill2_addr=$(wait_port "$ssmoke/kill2.port")
[[ $("$lg" --addr "$kill2_addr" --get /jobs | grep -o '"id":"j000[123]"' | sort -u | wc -l) -eq 3 ]]
wait_done "$kill2_addr" j0001 && wait_done "$kill2_addr" j0003
"$lg" --addr "$kill2_addr" --get /jobs/j0002/result | cmp "$ssmoke/ref-result.json" -
"$lg" --addr "$kill2_addr" --post /shutdown > /dev/null
wait "$kill2_pid"
# kill -9 once the long job has a checkpoint on disk: whichever write
# completed last is a whole, verified checkpoint, so the restart resumes
# from it and still ends on the reference result.
"$serve_bin" --listen 127.0.0.1:0 --state "$ssmoke/kill-mid" \
    --port-file "$ssmoke/kill-mid.port" 2> "$ssmoke/kill-mid.log" &
mid_pid=$!
mid_addr=$(wait_port "$ssmoke/kill-mid.port")
"$lg" --addr "$mid_addr" --post /jobs "$spec_big" > /dev/null
for _ in $(seq 600); do
    ls "$ssmoke/kill-mid/ckpt/"*.ckpt > /dev/null 2>&1 && break
    sleep 0.02
done
kill -KILL "$mid_pid"
wait "$mid_pid" || true
ls "$ssmoke/kill-mid/ckpt/"*.ckpt > /dev/null
"$serve_bin" --listen 127.0.0.1:0 --state "$ssmoke/kill-mid" \
    --port-file "$ssmoke/kill-mid2.port" 2> "$ssmoke/kill-mid2.log" &
mid2_pid=$!
mid2_addr=$(wait_port "$ssmoke/kill-mid2.port")
"$lg" --addr "$mid2_addr" --get /jobs/j0001 | grep -q '"resumed":true'
wait_done "$mid2_addr" j0001
"$lg" --addr "$mid2_addr" --get /jobs/j0001/result | cmp "$ssmoke/ref-result.json" -
"$lg" --addr "$mid2_addr" --post /shutdown > /dev/null
wait "$mid2_pid"

echo "== serve chaos smoke (seeded faults -> SIGTERM -> restart -> all terminal) =="
csmoke="target/serve-chaos-smoke"
rm -rf "$csmoke"
mkdir -p "$csmoke"
# A chaos-wrapped synthetic daemon: fates (panic/error/slow/checkpoint
# sabotage) are drawn per job fingerprint from the --chaos seed, so the
# restarted daemon below re-draws the same schedule.
"$serve_bin" --listen 127.0.0.1:0 --state "$csmoke/state" --synthetic 2000 \
    --chaos 11 --workers 4 --port-file "$csmoke/c.port" 2> "$csmoke/chaos.log" &
c_pid=$!
c_addr=$(wait_port "$csmoke/c.port")
for k in mm dsyrk jacobi2d; do
    for s in 1 2 3 4; do
        "$lg" --addr "$c_addr" --post /jobs \
            "{\"tenant\":\"chaos\",\"kernel\":\"$k\",\"machine\":\"westmere\",\"strategy\":\"random\",\"budget\":48,\"seed\":$s}" \
            > /dev/null
    done
done
sleep 0.1
kill -TERM "$c_pid"
wait "$c_pid"
# Restart on the same state with the same chaos seed: no job may be lost
# or stuck — every accepted job reaches Done or Failed.
"$serve_bin" --listen 127.0.0.1:0 --state "$csmoke/state" --synthetic 2000 \
    --chaos 11 --workers 4 --port-file "$csmoke/c2.port" 2>> "$csmoke/chaos.log" &
c2_pid=$!
c2_addr=$(wait_port "$csmoke/c2.port")
term=0
for _ in $(seq 600); do
    jobs_json=$("$lg" --addr "$c2_addr" --get /jobs)
    total=$(grep -c '"status"' <<< "$jobs_json" || true)
    term=$(grep -o '"status":"\(Done\|Failed\)"' <<< "$jobs_json" | wc -l)
    [[ "$total" == 12 && "$term" == 12 ]] && break
    sleep 0.1
done
if [[ "$term" != 12 ]]; then
    echo "chaos smoke: jobs lost or stuck after restart:" >&2
    echo "$jobs_json" >&2
    exit 1
fi
# Injected panics are contained (daemon alive, obs-logged) not fatal.
grep -q '"ServePanic"' "$csmoke/state/serve.jsonl"
# A parked checkpoint is a service event: no job's trace names a
# checkpoint file.
if grep -q 'ckpt/' "$csmoke/state/artifacts.log"; then
    echo "chaos smoke: a job trace in artifacts.log names a checkpoint file" >&2
    exit 1
fi
"$lg" --addr "$c2_addr" --get /healthz > /dev/null
cargo run -q --bin moat-report -- --from-serve "$csmoke/state" > "$csmoke/chaos-report.txt"
grep -q "contained backend panics" "$csmoke/chaos-report.txt"
"$lg" --addr "$c2_addr" --post /shutdown > /dev/null
wait "$c2_pid"

echo "== serve trace smoke (loadgen --trace -> /debug/spans -> --from-trace -> validate) =="
tsmoke="target/serve-trace-smoke"
rm -rf "$tsmoke"
mkdir -p "$tsmoke"
"$serve_bin" --listen 127.0.0.1:0 --state "$tsmoke/state" --synthetic 200 \
    --port-file "$tsmoke/t.port" 2> "$tsmoke/daemon.log" &
t_pid=$!
t_addr=$(wait_port "$tsmoke/t.port")
# Traced load: per-request submit latency keyed by trace id, plus the
# exit assertion that every trace id round-tripped into the span log.
"$lg" --addr "$t_addr" --clients 2 --jobs 3 --distinct 4 --trace \
    2> "$tsmoke/loadgen.log" > /dev/null
grep -q "trace round-trip OK" "$tsmoke/loadgen.log"
# Keep the span log as a CI artifact.
"$lg" --addr "$t_addr" --get /debug/spans > "$tsmoke/spans.jsonl"
[[ -s "$tsmoke/spans.jsonl" ]]
"$lg" --addr "$t_addr" --post /shutdown > /dev/null
wait "$t_pid"
# Causal span trees with critical-path breakdowns, and the SLO section.
cargo run -q --bin moat-report -- --from-serve "$tsmoke/state" --from-trace all \
    > "$tsmoke/trace-report.txt"
grep -q "critical path:" "$tsmoke/trace-report.txt"
cargo run -q --bin moat-report -- --from-serve "$tsmoke/state" --slo-p99-ms 250 \
    > "$tsmoke/slo-report.txt"
grep -q "SLO (end-to-end p99 target" "$tsmoke/slo-report.txt"
# The span log is a well-formed obs trace in its own right.
cargo run -q --bin moat-report -- "$tsmoke/state/spans.jsonl" --validate

echo "== paper reproduction (twelve benches -> REPRO.json, equal to the committed file) =="
scripts/repro.sh
git diff --exit-code REPRO.json

echo "== non-test line count (the figure ROADMAP tracks) =="
scripts/loc.sh

echo "All checks passed."
