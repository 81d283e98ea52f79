#!/usr/bin/env bash
# Runs the core kernel microbenchmarks and writes BENCH_perf_core.json,
# so the kernel perf trajectory is tracked across commits. End-to-end
# serving numbers come from perfbench (perfbench/README.md;
# scripts/perf_pairs.py compares two checkouts).
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

./build/bench/bench_perf_core \
  --benchmark_out=BENCH_perf_core.json \
  --benchmark_out_format=json \
  --benchmark_min_time=0.2 \
  "$@"

echo "wrote BENCH_perf_core.json"
