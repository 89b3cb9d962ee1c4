#!/usr/bin/env bash
# Records the benchmark baselines as BENCH_<name>.json: the Fig 7
# adaptive-vs-static scatter, the concurrent-runtime throughput harness,
# the parallel-scaling harness, the wide-join repair curve (n=6..20), and
# the shared-traffic harness (cross-query scan/cache sharing off vs on).
#
#   scripts/bench_baseline.sh            # writes bench/baselines/BENCH_*.json
#   scripts/bench_baseline.sh /tmp/perf  # writes elsewhere (e.g. for a CI
#                                        # run compared against the checked-in
#                                        # baselines via scripts/bench_delta.py)
#
# Scales are reduced from the paper's defaults so one run finishes in about
# a minute; the baselines track trends on a comparable machine class (same
# deterministic work units, wall times vary with hardware), they are not
# absolute performance claims. Regenerate on the machine class you compare
# against and commit the diff alongside performance-relevant changes.

set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD="${AJR_BUILD_DIR:-${ROOT}/build}"
OUT="${1:-${ROOT}/bench/baselines}"
mkdir -p "${OUT}"

echo "== baseline: fig7_scatter (reduced scale) =="
"${BUILD}/bench/fig7_scatter" --owners=20000 --per-template=10 --reps=3 \
  --json="${OUT}/BENCH_fig7_scatter.json"

echo
echo "== baseline: concurrent_throughput (reduced scale, dop axis) =="
"${BUILD}/bench/concurrent_throughput" --owners=20000 --per-template=10 \
  --workers=4 --dops=1,2,4 --json="${OUT}/BENCH_concurrent_throughput.json"

echo
echo "== baseline: parallel_scaling (reduced scale) =="
"${BUILD}/bench/parallel_scaling" --owners=20000 --per-template=10 --reps=3 \
  --dops=1,2,4,8 --json="${OUT}/BENCH_parallel_scaling.json"

echo
echo "== baseline: wide_join (repair curve n=6..20, reduced scale) =="
"${BUILD}/bench/wide_join" --owners=12000 --per-template=1 --reps=2 \
  --json="${OUT}/BENCH_wide_join.json"

echo
echo "== baseline: shared_traffic (8 concurrent identical queries) =="
"${BUILD}/bench/shared_traffic" --owners=20000 --concurrent=8 --per-client=2 \
  --reps=2 --json="${OUT}/BENCH_shared_traffic.json"

echo
echo "baselines written to ${OUT}/"
