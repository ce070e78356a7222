#!/usr/bin/env bash
# Builds pgssi_bench into build-bench/ and runs the scored DBT-2++
# benchmark, one fresh process per workload, one after another.
#
#   bench/suite/run.sh [--seed N] [--trace [0|1]]
#
# Each workload prints "<workload> <metric> <value> <unit>" lines and
# then its JSON result line. The set is also written to
# build-bench/results/<stamp>-seed<N>.json as JSON lines: a meta header,
# then one record per workload. Exits non-zero when the build fails or
# any correctness gate fails.
#
# BENCHMARK.json's runner calls this with
# `--workload NAME --seed N --seconds S --trace 0|1`, one workload per
# call. --workload runs that workload alone. The window is fixed (20 s,
# kWindowSeconds in pgssi_bench.cc), so --seconds must say 20.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)
cd "$root"

usage="usage: $0 [--seed N] [--trace [0|1]]"
workloads=(dbt2-ro80 dbt2-rw-big dbt2-wire dbt2-wal)
seed=1
trace=0
while (($#)); do
  case $1 in
    --workload | --seed | --seconds)
      (($# >= 2)) || { echo "$usage" >&2; exit 2; }
      case $1 in
        --workload) workloads=("$2") ;;
        --seed) seed=$2 ;;
        --seconds)
          [[ $2 == 20 ]] || { echo "$0: the window is fixed at 20 s" >&2; exit 2; } ;;
      esac
      shift 2 ;;
    --trace)
      if [[ ${2-} == 0 || ${2-} == 1 ]]; then trace=$2; shift 2; else trace=1; shift; fi ;;
    *) echo "$usage" >&2; exit 2 ;;
  esac
done

build=build-bench
cmake -S bench/suite -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2
cmake --build "$build" --target pgssi_bench -j "$(nproc)" >&2
bin=$build/pgssi_bench

commit=unknown
if [[ -e .git ]]; then commit=$(git rev-parse HEAD 2>/dev/null || echo unknown); fi

mkdir -p "$build/results"
suffix=$( ((trace)) && echo -trace || true)
results=$build/results/$(date -u +%Y%m%dT%H%M%S.%3NZ)-seed$seed$suffix.json
"$bin" --meta --seed "$seed" --trace "$trace" --commit "$commit" > "$results"

rc=0
for w in "${workloads[@]}"; do
  "$bin" --workload "$w" --seed "$seed" --trace "$trace" \
    --scratch "$build/scratch" --results "$results" \
    --trace-file "$build/results/trace-$w.json" || rc=$?
done
echo "results: $results" >&2
exit $rc
