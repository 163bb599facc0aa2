#!/usr/bin/env bash
# Build Release, run table2_throughput (and the google-benchmark micro
# suite), and diff the fresh BENCH_throughput.json against the committed
# baseline.
#
#   tools/run_bench.sh            # full: table2 + micro_matcher + diff
#   tools/run_bench.sh --fast     # skip the google-benchmark micro suite
#
# Env knobs (see bench/bench_common.h): LOOM_BENCH_SCALE, LOOM_BENCH_WINDOW.
# A run at other settings is not comparable to the committed baseline, and
# the diff says so.
#
# BENCH_throughput.json is a golden with no timings: per dataset and
# system, the quality triple (edge-cut, imbalance, assignment hash; for
# the edge partitioners also replication factor, edge balance and edge
# assignment hash) and the backend's deterministic final-stats counters
# (Loom's match-pool, matcher, eviction and cluster counts). Its sections
# are the four paper systems, Loom at the paper window t = 10000, Loom
# replayed from a binary stream file (the bench itself aborts if the
# replay's assignments differ from the in-memory source's) and the edge
# partitioners. tools/diff_bench.py compares every record whole and FAILS
# on any changed, missing or extra field. Speed is measured by
# `python3 bench/e2e/run.py`, from repeated interleaved runs.
#
# ctest additionally guards the quality triples at tiny scale via the
# `bench_smoke` test (table2_throughput --smoke vs the committed
# BENCH_smoke.json) and the multi-source differential via
# `file_stream_smoke_test` (every backend, RAM vs binary file vs text
# file vs lazy generator source).

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${LOOM_BENCH_BUILD_DIR:-build-bench}
FAST=0
[[ "${1:-}" == "--fast" ]] && FAST=1

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release > /dev/null
cmake --build "$BUILD_DIR" -j --target table2_throughput micro_matcher

NEW_JSON=$BUILD_DIR/BENCH_throughput.new.json
LOOM_BENCH_JSON="$NEW_JSON" "./$BUILD_DIR/table2_throughput"

if [[ $FAST -eq 0 ]]; then
  echo
  "./$BUILD_DIR/micro_matcher" --benchmark_min_time=0.1
fi

echo
if [[ -f BENCH_throughput.json ]]; then
  python3 tools/diff_bench.py BENCH_throughput.json "$NEW_JSON"
else
  echo "no committed BENCH_throughput.json baseline; seeding it from this run"
  cp "$NEW_JSON" BENCH_throughput.json
fi
