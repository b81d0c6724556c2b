#!/usr/bin/env python3
"""Steadiness check: repeated runs of one commit against BENCHMARK.json's bounds.

    python3 perfbench/steadiness.py [--workloads a,b] [--runs 10] [--sets 1|2]
                                    [--first-seed 1] [--seconds N] [--out FILE]

Run from the repository root. For every workload it runs the benchmark
`--runs` times, each with another seed, and for every end-to-end metric
reports the median and the spread: the distance between the first and third
quartile (statistics.quantiles(values, n=4)) as a share of the median. With
`--sets 2` it repeats the whole set on the same seeds and also reports how
far the second median moved from the first, in the metric's worse direction.

A metric passes when its spread (setup_s exempt) and its median shift stay
within its bound; the target is a spread below a third of the bound. The
exit code is 1 if any metric fails, or any run fails or is not correct.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, stdin=subprocess.DEVNULL,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    wall = time.time() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        return None, wall
    return json.loads(lines[-1]), wall


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med) if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=None, help="comma-separated; default all")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, choices=[1, 2], default=1)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None, help="default: run_seconds")
    ap.add_argument("--out", default=None, help="also write all results as JSON here")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    metrics = bench["end_to_end"]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))

    ok = True
    record = {}
    for wl in workloads:
        sets = []
        for k in range(args.sets):
            results = []
            for seed in seeds:
                res, wall = run_once(wl, seed, seconds)
                print(f"{wl} set {k + 1} seed {seed}: {wall:.1f} s, "
                      + ("FAILED" if res is None else
                         f"correct={res['correct']} attempted={res['attempted']} failed={res['failed']}"),
                      flush=True)
                if res is None or not res["correct"] or res["failed"]:
                    ok = False
                if res is not None:
                    results.append(res)
            sets.append(results)
        record[wl] = sets
        print(f"\n{wl}: {args.runs} seeds x {args.sets} set(s)")
        print(f"  {'metric':<28}{'unit':<11}{'median':>12}{'spread':>9}{'bound':>7}{'shift':>9}  verdict")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            meds, spreads = [], []
            for results in sets:
                vals = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
                if len(vals) < 2:
                    meds.append(float("nan")); spreads.append(float("inf"))
                    continue
                med, sp = spread(vals)
                meds.append(med); spreads.append(sp)
            worst = max(spreads)
            verdict = []
            if name != "setup_s" and worst > bound:
                verdict.append("SPREAD>BOUND")
            elif name != "setup_s" and worst > bound / 3:
                verdict.append("spread>bound/3")
            shift = ""
            if len(meds) == 2:
                sign = 1 if m["better"] == "lower" else -1
                rel = sign * (meds[1] - meds[0]) / abs(meds[0])
                shift = f"{rel:+.3f}"
                if rel > bound:
                    verdict.append("SHIFT>BOUND")
            if any(v.isupper() for v in verdict):
                ok = False
            print(f"  {name:<28}{m['unit']:<11}{meds[0]:>12.4g}{worst:>9.3f}{bound:>7.2f}{shift:>9}  "
                  + (" ".join(verdict) or "ok"), flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1)
    print("\nSTEADY" if ok else "\nNOT STEADY")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
