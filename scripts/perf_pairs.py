#!/usr/bin/env python3
"""Compares two checkouts on one perfbench workload in alternating pairs.

Usage, from anywhere:

    python3 scripts/perf_pairs.py --parent PARENT_DIR --change CHANGE_DIR \\
        --workload offline_audit --seeds 41-50 [--json runs.json]

For each seed, runs `python3 perfbench/run.py` untraced for BENCHMARK.json's
run_seconds once in each checkout, one after the other; the first pair
starts with the change, the next with the parent, and so on. The seed count
must be even, so that each side runs first in exactly half the pairs (the
first run of a pair reads a higher setup_s). Each checkout builds into its
own .bench_build/. Then prints, for every end-to-end metric of
BENCHMARK.json (read from the change checkout): each side's median and
quartiles, how many pairs the change won, the ratio of the medians, whether
the change's median gained more than the parent's interquartile range, and
whether it is worse than the parent's by more than the metric's bound.
setup_s medians by run order follow, then a table of runs with each run's
frames_served and host_steal_share notes; a parked_camera run is marked
with the highest power of two of frames served it passed (2^19, 2^20),
because the harness's per-frame records step its peak_rss_mb at each one.
Nothing under perfbench/ is changed.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

# perfbench's drive() keeps per-frame records in vectors that double; past
# each of these frame counts the doubling copy lifts parked_camera's
# peak_rss_mb. Over the 1 s warm-up plus a 15 s run, 2^20 frames is about
# 65.5k frames/s.
RECORD_STEP_FRAMES = (1 << 19, 1 << 20)


def parse_seeds(text):
    """'41-50' or '3,7,9' (or a mix) to a list of ints."""
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        elif part:
            seeds.append(int(part))
    return seeds


def run_once(checkout, workload, seed, seconds):
    """One perfbench run; returns its result, notes and exit status."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    notes = {}
    for line in lines:
        if line.startswith("# ") and not line.startswith("# metric "):
            key, _, value = line[2:].partition(": ")
            notes[key] = value
    result = None
    if proc.returncode == 0 and lines:
        result = json.loads(lines[-1])
    return {"returncode": proc.returncode, "notes": notes, "result": result}


def metric(run, name):
    if run["result"] is None:
        return None
    entry = run["result"]["metrics"].get(name)
    return None if entry is None else entry["value"]


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def fmt(v):
    return f"{v:.0f}" if abs(v) >= 1000 else f"{v:.4g}"


def record_step_mark(frames):
    """' >2^k' for the highest record step a run passed, else ''."""
    passed = [step for step in RECORD_STEP_FRAMES if frames > step]
    return f" >2^{passed[-1].bit_length() - 1}" if passed else ""


def setup_by_order(pairs):
    """setup_s medians of the first and of the second run of each pair."""
    out = []
    for position in ("first", "second"):
        values = {"parent": [], "change": []}
        for p in pairs:
            side = p["first"]
            if position == "second":
                side = "parent" if side == "change" else "change"
            v = metric(p[side], "setup_s")
            if v is not None:
                values[side].append(v)
        both = values["parent"] + values["change"]
        if not both:
            continue
        parts = [f"{side} {fmt(statistics.median(v))} ({len(v)})"
                 for side, v in values.items() if v]
        out.append(f"setup_s, {position} run of a pair: median "
                   f"{fmt(statistics.median(both))} over {len(both)} runs; "
                   + ", ".join(parts))
    return out


def summarize(spec, workload, pairs):
    out = []
    out.append(f"{'metric':<18} {'better':<6} {'parent median [q1, q3]':<28} "
               f"{'change median [q1, q3]':<28} {'ratio':>6} {'wins':>6} "
               f"{'gain>IQR':>8} {'past bound':>10}")
    for m in spec["end_to_end"]:
        name, higher = m["name"], m["better"] == "higher"
        par = [metric(p["parent"], name) for p in pairs]
        chg = [metric(p["change"], name) for p in pairs]
        both = [(a, b) for a, b in zip(par, chg)
                if a is not None and b is not None]
        if not both:
            out.append(f"{name:<18} no complete pairs")
            continue
        pq = quartiles([a for a, _ in both])
        cq = quartiles([b for _, b in both])
        wins = sum(1 for a, b in both if (b > a if higher else b < a))
        ratio = cq[1] / pq[1] if pq[1] else float("nan")
        gain = cq[1] - pq[1] if higher else pq[1] - cq[1]
        beyond_iqr = gain > pq[2] - pq[0]
        if higher:
            worse = cq[1] < pq[1] * (1.0 - m["bound"])
        else:
            worse = cq[1] > pq[1] * (1.0 + m["bound"])
        out.append(
            f"{name:<18} {m['better']:<6} "
            f"{fmt(pq[1]) + ' [' + fmt(pq[0]) + ', ' + fmt(pq[2]) + ']':<28} "
            f"{fmt(cq[1]) + ' [' + fmt(cq[0]) + ', ' + fmt(cq[2]) + ']':<28} "
            f"{ratio:>6.3f} {str(wins) + '/' + str(len(both)):>6} "
            f"{'yes' if beyond_iqr else 'no':>8} "
            f"{('WORSE>' + str(m['bound'])) if worse else 'no':>10}")
    out.append("")
    out.extend(setup_by_order(pairs))
    out.append("")
    out.append(f"{'pair':>4} {'seed':>5} {'first':<7} {'side':<7} {'ok':<3} "
               f"{'frames_served':>13} {'host_steal_share':>16}")
    for i, p in enumerate(pairs):
        for side in ("parent", "change"):
            run = p[side]
            ok = run["result"] is not None and run["result"]["failed"] == 0
            frames = run["notes"].get("frames_served", "-")
            mark = ""
            if workload == "parked_camera" and frames != "-":
                mark = record_step_mark(int(frames))
            steal = run["notes"].get("host_steal_share", "-")
            if steal != "-":
                steal = f"{float(steal):.3f}"
            out.append(f"{i + 1:>4} {p['seed']:>5} {p['first']:<7} {side:<7} "
                       f"{'yes' if ok else 'NO':<3} {frames + mark:>13} "
                       f"{steal:>16}")
    return "\n".join(out)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds)
    parser.add_argument("--json", type=Path,
                        help="also write every run's result and notes here")
    args = parser.parse_args()
    if len(args.seeds) % 2:
        parser.error(f"--seeds gives {len(args.seeds)} seeds; give an even "
                     "number, so each side runs first in half the pairs")

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    pairs = []
    for i, seed in enumerate(args.seeds):
        order = ("change", "parent") if i % 2 == 0 else ("parent", "change")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            checkout = args.change if side == "change" else args.parent
            pair[side] = run_once(checkout, args.workload, seed, seconds)
            print(f"[perf_pairs] pair {i + 1}/{len(args.seeds)} seed {seed} "
                  f"{side}: exit {pair[side]['returncode']}", file=sys.stderr,
                  flush=True)
        pairs.append(pair)
        if args.json:
            args.json.write_text(json.dumps(pairs, indent=1) + "\n")

    print(f"perf_pairs: {args.workload}, {len(pairs)} pairs, seeds "
          f"{args.seeds[0]}..{args.seeds[-1]}, {seconds:g} s each")
    print(summarize(spec, args.workload, pairs))
    failed = any(p[s]["result"] is None for p in pairs
                 for s in ("parent", "change"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
