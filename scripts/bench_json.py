#!/usr/bin/env python3
"""Run perfbench on a parent and a changed checkout in alternating pairs, and
write the pairs' statistics as a BENCH_<n>.json.

    python3 scripts/bench_json.py run --parent DIR --change DIR --logs LOGDIR \\
        --workload xa-infer --seeds 1-10 [--seconds 12] [--trace]
    python3 scripts/bench_json.py write --logs LOGDIR --out BENCH_<n>.json \\
        --title TEXT --parent-commit SHA [--host TEXT]

`run` first checks that both checkouts hold the same benchmark code:
BENCHMARK.json and every file under perfbench/ except build outputs. It
exits naming the files that differ, before any run. It then calls
`python3 perfbench/run.py` in each checkout, one run at a time:
the parent first on odd seeds and the change first on even seeds. It saves
each run's whole output as LOGDIR/<side>-<workload>-s<seed>[-trace].log,
with side `parent` or `change`. It skips a log that already holds a result,
so an interrupted series can be resumed.

`write` reads every such log in LOGDIR. For each workload it pairs the two
sides' untraced runs by seed. For every end-to-end metric of BENCHMARK.json
it reports each side's median and quartiles
(statistics.quantiles(values, n=4), as perfbench/steadiness.py), the
median's change in percent, how many pairs the change won, and a verdict
(see `verdict`). It also
says whether each method's `digest` line, and the `trained parameters`
digest of the set-up, was equal on every pair. Traced logs, which may come
from one workload only, give per-seed per-layer values and, with two or
more seeds, each side's spread per layer (interquartile range over median,
as steadiness.py computes it for end-to-end metrics). Which side ran first
is read from the logs' modification times.
"""

import argparse
import glob
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
LOG_RE = re.compile(r"^(parent|change)-(.+)-s(\d+)(-trace)?\.log$")
COMMAND = "python3 perfbench/run.py --workload {workload} --seed {seed} --seconds {seconds} --trace {trace}"


def log_path(logs, side, workload, seed, trace):
    return os.path.join(logs, f"{side}-{workload}-s{seed}{'-trace' if trace else ''}.log")


def parse_log(path):
    """The result line, env, digests and seconds of one saved perfbench run."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    result = next((json.loads(l) for l in reversed(lines) if l.startswith("{")), None)
    if result is None:
        raise SystemExit(f"{path}: no result line")
    env, digests, params = {}, {}, None
    for line in lines:
        if line.startswith("[perfbench] env "):
            env = json.loads(line[len("[perfbench] env "):])
        elif line.startswith("[perfbench] digest "):
            digests = dict(kv.split("=", 1) for kv in line.split()[2:])
        elif line.startswith("[perfbench] setup ") and "; trained parameters " in line:
            params = line.split("; trained parameters ", 1)[1].strip()
    return {"result": result, "env": env, "digests": digests, "params": params,
            "mtime": os.path.getmtime(path)}


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


# Build outputs under perfbench/, as .gitignore lists them.
BENCH_BUILD_DIRS = {"target", os.path.join("project", "target"), os.path.join("project", "project")}


def bench_code(checkout):
    """sha256 of BENCHMARK.json and of each benchmark source and build file
    under perfbench/, by path relative to `checkout`."""
    files = ["BENCHMARK.json"]
    top = os.path.join(checkout, "perfbench")
    for d, dirs, names in os.walk(top):
        rel = os.path.relpath(d, top)
        dirs[:] = [x for x in dirs
                   if x != "__pycache__" and os.path.normpath(os.path.join(rel, x)) not in BENCH_BUILD_DIRS]
        files += [os.path.relpath(os.path.join(d, n), checkout) for n in names]
    hashes = {}
    for f in files:
        path = os.path.join(checkout, f)
        if os.path.isfile(path):
            with open(path, "rb") as fh:
                hashes[f] = hashlib.sha256(fh.read()).hexdigest()
    return hashes


def check_same_bench_code(dirs):
    """Exits, naming the differing files, unless both checkouts hold the
    same benchmark code (choosing-metrics guide, section 6.3)."""
    parent, change = (bench_code(dirs[side]) for side in SIDES)
    differ = []
    for f in sorted(set(parent) | set(change)):
        if f not in parent:
            differ.append(f"{f} (only in the change)")
        elif f not in change:
            differ.append(f"{f} (only in the parent)")
        elif parent[f] != change[f]:
            differ.append(f"{f} (contents differ)")
    if differ:
        raise SystemExit("benchmark code differs between the parent and the change checkout: " + ", ".join(differ))


def run(args):
    dirs = {"parent": args.parent, "change": args.change}
    check_same_bench_code(dirs)
    os.makedirs(args.logs, exist_ok=True)
    for seed in seed_list(args.seeds):
        for side in (SIDES if seed % 2 else SIDES[::-1]):
            path = log_path(args.logs, side, args.workload, seed, args.trace)
            if os.path.exists(path) and any(l.startswith("{") for l in open(path)):
                continue
            cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "1" if args.trace else "0"]
            with open(path, "w") as fh:
                code = subprocess.run(cmd, cwd=dirs[side], stdin=subprocess.DEVNULL, stdout=fh,
                                      stderr=subprocess.STDOUT).returncode
            print(f"{args.workload} seed {seed} {side}: exit {code}", flush=True)


def stats(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": round(med, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def spread(values):
    """Interquartile range over median, None below two values or at median 0."""
    if len(values) < 2:
        return None
    q1, med, q3 = statistics.quantiles(values, n=4)
    return round((q3 - q1) / abs(med), 4) if med else None


def verdict(parent, change, better, bound):
    """One end-to-end metric's reading over paired runs, the first of these
    that holds:

    - `gain`: the change wins at least 90 % of the pairs (ties count for
      neither side) and the medians differ, in the better direction, by more
      than the parent's interquartile range;
    - `worse`: the change's median is worse than the parent's by more than
      `bound`, a fraction of the parent's median;
    - `unresolved`: the parent's interquartile range over its median is
      wider than `bound`, unless every run of the change reads better than
      every run of the parent;
    - `held`: every other case.
    """
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    q1, p_med, q3 = statistics.quantiles(parent, n=4)
    c_med = statistics.median(change)
    if wins >= 0.9 * len(parent) and sign * (c_med - p_med) > q3 - q1:
        return "gain"
    if -sign * (c_med - p_med) > bound * abs(p_med):
        return "worse"
    best_parent = max(parent) if better == "higher" else min(parent)
    if q3 - q1 > bound * abs(p_med) and not all(sign * (c - best_parent) > 0 for c in change):
        return "unresolved"
    return "held"


def order_note(pairs):
    """Which side ran first on each seed, from the logs' modification times."""
    first = {seed: "parent" if p["parent"]["mtime"] < p["change"]["mtime"] else "change"
             for seed, p in pairs.items()}
    if all(f == ("parent" if s % 2 else "change") for s, f in first.items()):
        return "alternating: parent ran first on odd seeds, the change first on even seeds"
    if all(f == ("change" if s % 2 else "parent") for s, f in first.items()):
        return "alternating: the change ran first on odd seeds, parent first on even seeds"
    return "first: " + ", ".join(f"seed {s} {f}" for s, f in sorted(first.items()))


def workload_record(pairs, end_to_end):
    seeds = sorted(pairs)
    runs = [pairs[s][side] for s in seeds for side in SIDES]
    methods = sorted(set().union(*(p[side]["digests"] for p in pairs.values() for side in SIDES)))
    digests = {m: all(pairs[s]["parent"]["digests"].get(m) == pairs[s]["change"]["digests"].get(m)
                      for s in seeds) for m in methods}
    params = all(pairs[s]["parent"]["params"] is not None and
                 pairs[s]["parent"]["params"] == pairs[s]["change"]["params"] for s in seeds)
    record = {
        "seeds": seeds,
        "pairs": len(seeds),
        "order": order_note(pairs),
        "outputs_identical": all(digests.values()) and params,
        "trained_parameters_identical": params,
        "digests_identical": digests,
        "failed": sum(r["result"]["failed"] for r in runs),
        "metrics": {},
    }
    for m in end_to_end:
        name = m["name"]
        vals = {side: [pairs[s][side]["result"]["metrics"][name]["value"] for s in seeds] for side in SIDES}
        sign = 1 if m["better"] == "higher" else -1
        p_med = statistics.median(vals["parent"])
        record["metrics"][name] = {
            "unit": m["unit"],
            "better": m["better"],
            "bound": m["bound"],
            "parent": stats(vals["parent"]),
            "change": stats(vals["change"]),
            "median_change_pct": round(100 * (statistics.median(vals["change"]) - p_med) / p_med, 2)
            if p_med else None,
            "change_better_pairs": sum(sign * (c - p) > 0 for p, c in zip(vals["parent"], vals["change"])),
            "verdict": verdict(vals["parent"], vals["change"], m["better"], m["bound"]),
        }
    return record


def host_note():
    try:
        with open("/proc/cpuinfo") as fh:
            model = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        model = "unknown CPU"
    return f"{os.cpu_count()}-vCPU {model}"


def write(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    logs = {False: {}, True: {}}  # trace -> workload -> seed -> side -> parsed
    for path in sorted(glob.glob(os.path.join(args.logs, "*.log"))):
        m = LOG_RE.match(os.path.basename(path))
        if m:
            side, workload, seed, trace = m.group(1), m.group(2), int(m.group(3)), bool(m.group(4))
            logs[trace].setdefault(workload, {}).setdefault(seed, {})[side] = parse_log(path)

    def complete(by_seed):
        return {s: p for s, p in by_seed.items() if len(p) == 2}

    untraced = {w: complete(v) for w, v in logs[False].items()}
    untraced = {w: v for w, v in untraced.items() if len(v) >= 2}
    if not untraced:
        raise SystemExit(f"{args.logs}: no workload with two or more complete pairs")
    envs = [p[side]["env"] for v in untraced.values() for p in v.values() for side in SIDES]
    env = {k: envs[0].get(k) for k in ("nproc", "java", "vm", "xmx_mb", "gc")}
    env["host"] = args.host or host_note()
    seconds = envs[0].get("seconds")
    out = {
        "change": args.title,
        "parent_commit": args.parent_commit,
        "command": COMMAND.format(workload="<workload>", seed="<seed>",
                                  seconds=int(seconds) if seconds else "<seconds>", trace=0),
        "units_note": "latencies and rates are in reference-seconds (perfbench/README.md); setup_s in seconds",
        "quartiles": "statistics.quantiles(values, n=4), as perfbench/steadiness.py",
        "verdicts": " ".join(verdict.__doc__.split()),
        "env": env,
        "workloads": {w: workload_record(v, bench["end_to_end"]) for w, v in sorted(untraced.items())},
    }
    traced = {w: complete(v) for w, v in logs[True].items() if complete(v)}
    if len(traced) > 1:
        raise SystemExit(f"traced logs from more than one workload: {sorted(traced)}")
    for workload, pairs in traced.items():
        layers = [m for m in bench["per_layer"]
                  if all(m["name"] in p[side]["result"]["metrics"] for p in pairs.values() for side in SIDES)]
        out["per_layer"] = {
            "command": COMMAND.format(workload=workload, seed="<seed>",
                                      seconds=int(seconds) if seconds else "<seconds>", trace=1),
            "workload": workload,
            "failed": sum(p[side]["result"]["failed"] for p in pairs.values() for side in SIDES),
            "seeds": {
                str(s): {
                    m["name"]: {"unit": m["unit"],
                                **{side: round(pairs[s][side]["result"]["metrics"][m["name"]]["value"], 4)
                                   for side in SIDES}}
                    for m in bench["per_layer"] if m["name"] in pairs[s]["parent"]["result"]["metrics"]
                }
                for s in sorted(pairs)
            },
            "spread_note": "per side, (q3 - q1) / median over the traced seeds; null below two seeds",
            "spread": {
                m["name"]: {side: spread([p[side]["result"]["metrics"][m["name"]]["value"] for p in pairs.values()])
                            for side in SIDES}
                for m in layers
            },
        }
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=1, ensure_ascii=False)
        fh.write("\n")
    for w, rec in out["workloads"].items():
        print(f"{w}: {rec['pairs']} pairs, failed {rec['failed']}, outputs identical {rec['outputs_identical']} "
              f"(trained parameters {rec['trained_parameters_identical']})")
        for name, m in rec["metrics"].items():
            if m["verdict"] != "held":
                pct = m["median_change_pct"]
                print(f"  {name}: {m['verdict']} (median {'n/a' if pct is None else f'{pct:+} %'}, "
                      f"{m['change_better_pairs']}/{rec['pairs']} pairs better)")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="run alternating parent/change pairs and save their logs")
    r.add_argument("--parent", required=True, help="checkout of the parent commit")
    r.add_argument("--change", default=ROOT, help="checkout of the change (default: this one)")
    r.add_argument("--logs", required=True)
    r.add_argument("--workload", required=True)
    r.add_argument("--seeds", required=True, help="N or N-M")
    r.add_argument("--seconds", type=int, default=12)
    r.add_argument("--trace", action="store_true")
    w = sub.add_parser("write", help="write BENCH JSON from saved logs")
    w.add_argument("--logs", required=True)
    w.add_argument("--out", required=True)
    w.add_argument("--title", required=True, help="one line saying what the change is")
    w.add_argument("--parent-commit", required=True)
    w.add_argument("--host", default=None, help="default: CPU count and model from /proc/cpuinfo")
    args = ap.parse_args()
    run(args) if args.cmd == "run" else write(args)


if __name__ == "__main__":
    main()
