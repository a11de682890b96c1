#!/usr/bin/env python3
"""Steadiness self-report for the dispatch benchmark.

Runs the benchmark command from BENCHMARK.json once per seed on each
chosen workload (one process at a time), then prints, for every metric
of the chosen mode, the median, the quartiles, the interquartile range
as a share of the median (the spread the bounds are judged against) and
the max/min ratio. With --bounds it also marks each end-to-end spread
against its bound and against a third of it.

Run from the repository root:

    python3 perfbench/steadiness.py --workloads city-near --seeds 1-5
    python3 perfbench/steadiness.py --seeds 1-10 --bounds --json perfbench/out/steadiness.json
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(command, workload, seed, seconds, trace):
    argv = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    started = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True)
    wall = time.monotonic() - started
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect run {result}")
    return result, wall, proc.stderr


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / med if med else float("nan"),
        "max_min": max(values) / min(values) if min(values) > 0 else float("nan"),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", help="comma-separated names (default: all)")
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--bounds", action="store_true", help="judge spreads against the bounds")
    ap.add_argument("--json", help="also write every run and summary to this file")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else names
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)

    report = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    ok = True
    for w in workloads:
        runs = []
        for seed in seeds:
            result, wall, log = run_once(bench["command"], w, seed, seconds, args.trace)
            runs.append({"seed": seed, "wall_s": wall, "metrics": result["metrics"],
                         "log": log.splitlines()})
            print(f"[{w} seed {seed}] {wall:.1f} s wall, attempted {result['attempted']}",
                  file=sys.stderr)
        print(f"\n{w}: {len(seeds)} runs of {seconds} s, seeds {args.seeds}, "
              f"longest run {max(r['wall_s'] for r in runs):.1f} s")
        print(f"  {'metric':<28} {'median':>14} {'q1':>14} {'q3':>14} {'iqr/med':>8} {'max/min':>8}")
        summary = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            s = summarize(values)
            summary[name] = s
            mark = ""
            if args.bounds and name in bounds:
                b = bounds[name]
                if s["iqr_share"] > b:
                    mark, ok = f"OVER bound {b}", False
                elif s["iqr_share"] > b / 3:
                    mark = f"over a third of bound {b}"
                else:
                    mark = f"ok (bound {b})"
            print(f"  {name:<28} {s['median']:>14.6g} {s['q1']:>14.6g} {s['q3']:>14.6g} "
                  f"{s['iqr_share']:>8.4f} {s['max_min']:>8.4f}  {mark}")
        report["workloads"][w] = {"runs": runs, "summary": summary}
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
