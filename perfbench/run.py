#!/usr/bin/env python3
"""End-to-end benchmark of the deep validation system (see README.md).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload drift_stream --seed 1 --seconds 15 --trace 0

Builds the program and the benchmark binary into .bench_build/ (once),
makes the fixtures with the program's own training and fitting code (once
per program source), then runs one workload. Prints the binary's
diagnostic lines and, as the last line, one JSON object with the keys
correct, attempted, failed and metrics. Exits non-zero without a result
line when anything fails, including a checkout without the program's
sources.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
FIXTURES = BUILD_DIR / "fixtures"
OUT_DIR = BUILD_DIR / "out"

# Pool size per workload. The stream workloads leave one of the four
# vCPUs to the generator thread.
WORKLOADS = {
    "drift_stream": 3,
    "parked_camera": 3,
    "offline_audit": 4,
    "bank_refit": 4,
}
RUN_TIMEOUT_S = 170
# Knobs the program reads; every run starts from their defaults.
PROGRAM_ENV = ("DV_THREADS", "DV_SIMD", "DV_CACHE", "DV_CACHE_CAPACITY",
               "DV_FAST", "DV_SCALE", "DV_METRICS", "DV_METRICS_DETERMINISTIC",
               "DV_SNAPSHOT_MMAP", "DV_ARTIFACT_DIR")


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def program_env(threads):
    env = {k: v for k, v in os.environ.items() if k not in PROGRAM_ENV}
    env["DV_THREADS"] = str(threads)
    env["DV_SIMD"] = "auto"
    return env


def build():
    """Configures and builds dv_perfbench (a no-op when up to date)."""
    cmake_dir = BUILD_DIR / "cmake"
    if not (cmake_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(cmake_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(cmake_dir), "-j", "4"],
                   check=True, stdout=sys.stderr)
    return cmake_dir / "dv_perfbench"


def fixture_digest():
    """Fixtures depend on the program's sources and the fixture recipe."""
    h = hashlib.sha256()
    files = sorted(p for p in (ROOT / "src").rglob("*") if p.is_file())
    files.append(BENCH_DIR / "cpp" / "fixtures.cpp")
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def ensure_fixtures(binary):
    stamp = FIXTURES / "STAMP"
    digest = fixture_digest()
    if stamp.exists() and stamp.read_text().strip() == digest:
        return
    log("making fixtures (trains two models; a few minutes, untimed)")
    subprocess.run([str(binary), "fixtures", "--fixtures", str(FIXTURES)],
                   check=True, env=program_env(4), stdout=sys.stderr)
    stamp.write_text(digest + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--perturb", default="",
                        help="perturb one reference value of the named check "
                             "(verdict, audit, refit) to show it firing")
    args = parser.parse_args()

    try:
        binary = build()
        ensure_fixtures(binary)
    except (subprocess.CalledProcessError, OSError) as err:
        log(f"build or fixtures failed: {err}")
        return 1

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "run", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--fixtures", str(FIXTURES),
           "--out", str(OUT_DIR)]
    if args.perturb:
        cmd += ["--perturb", args.perturb]
    try:
        proc = subprocess.run(cmd, env=program_env(WORKLOADS[args.workload]),
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"dv_perfbench exited with {proc.returncode}")
        return 1
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("dv_perfbench printed a malformed result")
        return 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
