#!/usr/bin/env bash
# Static-analysis and sanitizer gate. Runs, in order:
#   1. dv_lint over src/, bench/, tests/, tools/ with the API-surface
#      check (fails on any violation or snapshot drift),
#   2. the effect-inference checks alone (transitive hot-path purity,
#      lock order, init-only config, capture safety) for attribution,
#   3. the lockset race pass alone (guarded-by verification + inference),
#   4. the warm-cache incrementality contract on a scratch copy of the
#      tree (fully-warm run replays every file; touching one file
#      re-lints only that file, fast),
#   5. the clang-tidy target (no-op with a notice when clang-tidy is absent),
#   6. the test suite under ThreadSanitizer      (build-tsan/),
#   7. the test suite under Address+UBSanitizer  (build-asan/).
# All builds use DV_WERROR=ON, so new warnings fail the gate too. Each
# configuration keeps its own build directory; later runs are incremental.
#
# Every stage always runs, even after an earlier stage failed: one CI run
# reports every broken gate instead of stopping at the first. The script
# exits non-zero if any stage failed and prints a per-stage summary with
# wall time per stage.
set -uo pipefail
cd "$(dirname "$0")/.."

stage_names=()
stage_results=()
stage_times=()

# run_stage <name> <command...>: runs the command, records pass/fail and
# wall time.
run_stage() {
  local name="$1"
  shift
  echo "== ${name} =="
  local t0 t1
  t0=$(date +%s%N)
  if "$@"; then
    stage_names+=("${name}")
    stage_results+=(pass)
  else
    stage_names+=("${name}")
    stage_results+=(FAIL)
  fi
  t1=$(date +%s%N)
  stage_times+=("$(((t1 - t0) / 1000000))")
}

lint_stage() {
  cmake -B build-lint -G Ninja -DCMAKE_BUILD_TYPE=Release -DDV_WERROR=ON &&
    cmake --build build-lint --target dv_lint &&
    ./build-lint/tools/dv_lint/dv_lint --root . --check-api-surface \
      src bench tests tools
}

# The effect-inference checks run inside the dv_lint stage already; this
# stage re-runs only them so the pass/FAIL table attributes a transitive
# regression (hot-path purity, lock order, config reads, captures) to
# the effects engine rather than to the whole linter.
effects_stage() {
  ./build-lint/tools/dv_lint/dv_lint --root . \
    --only hot-path-purity,lock-order,init-only-config,capture \
    src bench tests tools
}

# Likewise for the lockset race pass: re-run it alone so a guarded-by or
# inference regression shows up on its own table row.
race_stage() {
  ./build-lint/tools/dv_lint/dv_lint --root . --only race \
    src bench tests tools
}

# Warm-cache incrementality, on a scratch copy of the tree so the gate
# never edits the checkout: a cold lint-fast populates the cache, a
# fully-warm rerun must replay every file from it, and touching exactly
# one file must re-lint only that file — and fast, which is the point of
# the cache.
incremental_stage() {
  local bin=./build-lint/tools/dv_lint/dv_lint
  local scratch=build-lint/dv_lint_incremental
  rm -rf "${scratch}"
  mkdir -p "${scratch}/tree"
  cp -r src bench tests tools "${scratch}/tree/" || return 1
  local args=(--root "${scratch}/tree" --cache-dir "${scratch}/cache"
              src bench tests tools)
  "${bin}" "${args[@]}" >/dev/null || return 1
  local warm total cached
  warm=$("${bin}" "${args[@]}") || return 1
  total=$(sed -n 's/^dv_lint: \([0-9][0-9]*\) file(s).*/\1/p' <<<"${warm}")
  cached=$(sed -n 's/.* \([0-9][0-9]*\) cached.*/\1/p' <<<"${warm}")
  if [ -z "${total}" ] || [ "${cached}" != "${total}" ]; then
    echo "warm run expected every file cached, got: ${warm}"
    return 1
  fi
  echo "// incremental-gate touch" >>"${scratch}/tree/src/util/thread_pool.cpp"
  local t0 t1 touched ms
  t0=$(date +%s%N)
  touched=$("${bin}" "${args[@]}") || return 1
  t1=$(date +%s%N)
  ms=$(((t1 - t0) / 1000000))
  cached=$(sed -n 's/.* \([0-9][0-9]*\) cached.*/\1/p' <<<"${touched}")
  if [ "${cached}" != "$((total - 1))" ]; then
    echo "touch-one run expected $((total - 1)) cached, got: ${touched}"
    return 1
  fi
  echo "touch-one warm re-lint: ${ms} ms, $((total - 1))/${total} replayed"
  if [ "${ms}" -ge 1000 ]; then
    echo "touch-one warm re-lint took ${ms} ms (expected well under 100)"
    return 1
  fi
  rm -rf "${scratch}"
}

tidy_stage() {
  cmake --build build-lint --target tidy
}

# Sanitizer runs sweep the SIMD dispatch axis: always DV_SIMD=scalar, and
# additionally DV_SIMD=avx2 when the host supports it, so the vector
# kernels get sanitizer coverage too (the env matrix in tests/ covers
# correctness; this covers memory/threading behavior per ISA). Each level
# also sweeps the caching axis (DV_CACHE off/on, docs/CACHING.md) so the
# cached scoring paths — hash, probe, dedup, eviction — run under the
# sanitizers alongside the uncached paths they must match.
simd_levels() {
  echo scalar
  if grep -q avx2 /proc/cpuinfo 2>/dev/null; then
    echo avx2
  fi
}

#
# The ctest reruns that pin DV_SIMD themselves (test_golden_env_{scalar,
# sse2,avx2}, test_simd_env_*) run the same environment at every level,
# so they run only in the scalar passes; those that pin DV_CACHE=off
# (test_golden_env_cache_off, test_cache_env_off) run only in the off
# passes. Every (test, effective environment) pair still runs once.
sanitized_ctest() {
  local dir="$1"
  local level cache
  for level in $(simd_levels); do
    for cache in off on; do
      local skip=()
      if [ "${level}" != scalar ]; then
        skip+=('^test_golden_env_(scalar|sse2|avx2)$' '^test_simd_env_')
      fi
      if [ "${cache}" != off ]; then
        skip+=('^test_golden_env_cache_off$' '^test_cache_env_off$')
      fi
      local exclude=()
      if [ "${#skip[@]}" -gt 0 ]; then
        exclude=(-E "$(IFS='|'; echo "${skip[*]}")")
      fi
      echo "-- ctest (${dir}) under DV_SIMD=${level} DV_CACHE=${cache}" \
        "${exclude[@]+${exclude[@]}}"
      DV_SIMD="${level}" DV_CACHE="${cache}" \
        ctest --test-dir "${dir}" --output-on-failure \
        "${exclude[@]+"${exclude[@]}"}" ||
        return 1
    done
  done
}

# The snapshot corruption drill runs as its own ASan/UBSan stage so a
# flat-format parser regression (a flipped byte or truncation reaching
# undefined behavior instead of serialize_error, or a non-finite bank
# loading) is attributed to the snapshot format, not to the whole
# sanitizer sweep.
snapshot_corruption_stage() {
  cmake -B build-asan -G Ninja -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DDV_WERROR=ON -DDV_SANITIZE=address,undefined &&
    cmake --build build-asan --target test_snapshot &&
    ctest --test-dir build-asan -R '^test_snapshot$' --output-on-failure
}

tsan_stage() {
  cmake -B build-tsan -G Ninja -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DDV_WERROR=ON -DDV_SANITIZE=thread &&
    cmake --build build-tsan &&
    sanitized_ctest build-tsan
}

asan_stage() {
  cmake -B build-asan -G Ninja -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DDV_WERROR=ON -DDV_SANITIZE=address,undefined &&
    cmake --build build-asan &&
    sanitized_ctest build-asan
}

run_stage "dv_lint" lint_stage
run_stage "effects" effects_stage
run_stage "race" race_stage
run_stage "incremental-cache" incremental_stage
run_stage "clang-tidy" tidy_stage
run_stage "snapshot-corruption" snapshot_corruption_stage
run_stage "ThreadSanitizer" tsan_stage
run_stage "Address+UndefinedBehaviorSanitizer" asan_stage

echo
echo "== static analysis gate summary =="
failed=0
for i in "${!stage_names[@]}"; do
  printf '  %-38s %-4s %8s ms\n' "${stage_names[$i]}" \
    "${stage_results[$i]}" "${stage_times[$i]}"
  if [ "${stage_results[$i]}" != pass ]; then
    failed=1
  fi
done
if [ "${failed}" -ne 0 ]; then
  echo "static analysis gate: FAILED"
  exit 1
fi
echo "static analysis gate: all clean"
