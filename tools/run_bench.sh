#!/usr/bin/env bash
# Build Release, run the throughput benches, and diff the fresh
# BENCH_throughput.json against the committed baseline.
#
#   tools/run_bench.sh            # full: table2 + micro_matcher + diff
#   tools/run_bench.sh --fast     # skip the google-benchmark micro suite
#
# Env knobs (see bench/bench_common.h): LOOM_BENCH_SCALE, LOOM_BENCH_WINDOW.
#
# Backend selection goes through engine::PartitionerRegistry specs: set
# LOOM_BENCH_SYSTEMS to a ';'-separated list of "name" or
# "name:key=value,..." strings, e.g.
#
#   LOOM_BENCH_SYSTEMS="fennel;loom:window_size=2000,alpha=0.5" \
#       tools/run_bench.sh --fast
#
# Any key accepted by engine::EngineOptions works (loom_partition
# --help-opts lists them). Custom selections are exploratory: they are not
# comparable to the committed baseline, so the quality diff is skipped.
#
# In default mode the diff FAILS if partition quality (edge-cut / imbalance
# / assignment hash) differs from the baseline; throughput changes only
# warn. The default run also records a file_stream section (loom replayed
# from a freshly written io::FileEdgeSource binary stream at the paper
# window — eps, eps_vs_inmemory and the quality triple, which
# diff_bench.py guards as "loom@file"); the bench itself aborts if the
# file replay diverges from loom's assignment hash.
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
if [[ -n "${LOOM_BENCH_SYSTEMS:-}" ]]; then
  echo "LOOM_BENCH_SYSTEMS is set (custom backend selection); skipping the"
  echo "baseline quality diff. Results: $NEW_JSON"
elif [[ -f BENCH_throughput.json ]]; then
  python3 tools/diff_bench.py BENCH_throughput.json "$NEW_JSON"
else
  echo "no committed BENCH_throughput.json baseline; seeding it from this run"
  cp "$NEW_JSON" BENCH_throughput.json
fi
