#!/usr/bin/env bash
# Runs the core kernel microbenchmarks and writes BENCH_perf_core.json,
# so the kernel perf trajectory is tracked across commits. End-to-end
# serving numbers come from perfbench (perfbench/README.md;
# scripts/perf_pairs.py compares two checkouts).
#
# Kernels run with DV_CACHE=off, so no row measures a cache unless it pins
# the cache on itself (the rows named *cached*). Each row runs 5 times and
# the JSON keeps the mean, median, stddev and cv of the 5: back-to-back
# single runs on a 4-vCPU VM spread by up to +-30%.
#
# Usage: scripts/run_perf_bench.sh [extra google-benchmark flags...]
# e.g.   scripts/run_perf_bench.sh --benchmark_filter='bm_gemm.*'
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -S . >/dev/null
cmake --build build -j --target bench_perf_core >/dev/null

# The SIMD dispatch level in effect (DV_SIMD=scalar|sse2|avx2|auto) is
# recorded in the JSON context as `dv_simd_dispatch_level`, so baselines
# at different levels stay distinguishable.
echo "DV_SIMD=${DV_SIMD:-auto}"

DV_CACHE=off ./build/bench/bench_perf_core \
  --benchmark_out=BENCH_perf_core.json \
  --benchmark_out_format=json \
  --benchmark_min_time=0.2 \
  --benchmark_repetitions=5 \
  --benchmark_report_aggregates_only=true \
  "$@"

echo "wrote BENCH_perf_core.json"
