#!/usr/bin/env bash
# Regenerate the committed benchmark baselines at the repo root —
# BENCH_transpose.json, BENCH_parallel.json, BENCH_kernels.json,
# BENCH_aos.json and BENCH_batched.json — via `ipt-cli bench` (release
# build). Ends with a self-compare of each fresh file as a sanity check
# that the emit → parse → compare pipeline round-trips.
#
# Usage: scripts/bench.sh [extra ipt-cli bench flags, e.g. --quick]
#
# Knobs:
#   IPT_BENCH_HISTORY_DIR  if set, every suite run is also archived into
#                          this directory as a dated ipt-bench-report-v1
#                          file (the `--history` trend archive; gate a
#                          later run with
#                          `ipt-cli bench --compare NEW --history DIR`).
#   IPT_BENCH_HISTORY_KEEP per-suite retention for that archive (default
#                          24): this script passes it as `--keep`, so
#                          after each run the suite's archive is pruned
#                          to the newest N files, oldest first, and a
#                          long-lived history dir stays bounded.
#
# On a multi-core host (nproc > 1) the parallel and aos suites run with
# --scaling: the report gains the tall-skinny 65536x8 shape and (for
# parallel) a 1-thread r2c_parallel_1t twin of r2c_parallel, so each
# archive entry carries the host's scaling-efficiency ratio. Single-core hosts skip it
# — a 1-vs-1 "scaling" entry would be noise.
#
# Numbers are machine-dependent: regenerate on the machine you compare
# on, and gate changes with
#   ipt-cli bench --suite <s> --out /tmp/new.json
#   ipt-cli bench --compare BENCH_<s>.json /tmp/new.json
# which exits 3 if any median throughput regressed by more than 10%.
# For creeping multi-run regressions, keep a history directory and use
#   ipt-cli bench --compare /tmp/new.json --history "$IPT_BENCH_HISTORY_DIR"
# which also fails on monotone drift past the threshold.

set -euo pipefail

cd "$(dirname "$0")/.." || exit 1

SUITES=(transpose parallel kernels aos batched)

echo "== build (release) =="
cargo build --release -p ipt-cli

CLI=target/release/ipt-cli

HISTORY_FLAGS=()
if [ -n "${IPT_BENCH_HISTORY_DIR:-}" ]; then
    HISTORY_FLAGS=(--history "$IPT_BENCH_HISTORY_DIR"
        --keep "${IPT_BENCH_HISTORY_KEEP:-24}")
fi

CORES=$(nproc 2> /dev/null || echo 1)

for suite in "${SUITES[@]}"; do
    echo "== suite: $suite =="
    SCALING_FLAGS=()
    if [ "$CORES" -gt 1 ]; then
        case "$suite" in
            parallel | aos) SCALING_FLAGS=(--scaling) ;;
        esac
    fi
    "$CLI" bench --suite "$suite" --out "BENCH_${suite}.json" \
        "${HISTORY_FLAGS[@]}" "${SCALING_FLAGS[@]}" "$@"
done

echo "== sanity: self-compare round-trip =="
for suite in "${SUITES[@]}"; do
    "$CLI" bench --compare "BENCH_${suite}.json" "BENCH_${suite}.json" > /dev/null
done

echo "== wrote BENCH_{transpose,parallel,kernels,aos,batched}.json =="
