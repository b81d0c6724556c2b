#!/usr/bin/env python3
"""Check that a change leaves every Table III/IV/V metric bit-identical to
its parent's, and show what it did to the size of the main sources.

    python3 scripts/harness_diff.py --parent DIR [--change DIR]

In each checkout (the parent first; the change defaults to this one) it
deletes target/harness-XA-tiny.tsv and runs
`sbt "testOnly repro.eval.HarnessSpec"`, which writes that file again. The
sbt runs get the environment of the tier-1 test command (offline sbt,
SPARK_GRAFT_CPUS, SPARK_DRIVER_MEM, SPARK_LOCAL_DIRS) wherever the caller's
environment does not set those variables. It prints the line count of each
checkout's src/main/scala, then compares the two files. It exits 0 when they
are byte-identical, and 1 naming the first differing row otherwise, or when
either sbt run fails or writes no file.

A parent older than the dump needs the change's
src/test/scala/repro/eval/HarnessSpec.scala copied in first.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TSV = os.path.join("target", "harness-XA-tiny.tsv")
SBT_TIMEOUT_S = 2670


def tier1_env():
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    if "SBT_OPTS" not in env:
        opts = ["-Dsbt.offline=true", "-Xmx4g"]
        repos = os.path.expanduser("~/.sbt/repositories")
        if os.path.exists(repos):
            opts += ["-Dsbt.override.build.repos=true", f"-Dsbt.repository.config={repos}"]
        env["SBT_OPTS"] = " ".join(opts)
    env.setdefault("SPARK_GRAFT_CPUS", str(len(os.sched_getaffinity(0))))
    env.setdefault("SPARK_DRIVER_MEM", f"{driver_mem_gb()}g")
    env.setdefault("SPARK_LOCAL_DIRS", "/tmp/spark-local")
    return env


def driver_mem_gb():
    """Half the machine's memory in GiB, clamped to 2..8 (2 if unknown)."""
    try:
        with open("/proc/meminfo") as fh:
            kb = next(int(l.split()[1]) for l in fh if l.startswith("MemTotal:"))
    except (OSError, StopIteration, ValueError):
        return 2
    return min(8, max(2, kb // 2097152))


def main_lines(checkout):
    total = 0
    for d, _, names in os.walk(os.path.join(checkout, "src", "main", "scala")):
        for n in names:
            if n.endswith(".scala"):
                with open(os.path.join(d, n), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


def harness_tsv(side, checkout):
    """Run HarnessSpec in `checkout` and return the file it wrote."""
    path = os.path.join(checkout, TSV)
    if os.path.exists(path):
        os.remove(path)
    print(f"{side}: sbt testOnly repro.eval.HarnessSpec in {checkout}", flush=True)
    proc = subprocess.run(["sbt", "--batch", "-Dsbt.log.noformat=true", "testOnly repro.eval.HarnessSpec"],
                          cwd=checkout, env=tier1_env(), stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True, timeout=SBT_TIMEOUT_S)
    if proc.returncode != 0 or not os.path.exists(path):
        sys.stdout.write("\n".join(proc.stdout.splitlines()[-30:]) + "\n")
        raise SystemExit(f"{side}: HarnessSpec failed (exit {proc.returncode}) or wrote no {TSV}")
    with open(path, "rb") as fh:
        return fh.read()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", default=ROOT, help="checkout of the change (default: this one)")
    args = ap.parse_args()
    dirs = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    tsv = {side: harness_tsv(side, d) for side, d in dirs.items()}
    for side, d in dirs.items():
        print(f"{side}: src/main/scala {main_lines(d)} lines")
    if tsv["parent"] == tsv["change"]:
        rows = tsv["parent"].count(b"\n")
        print(f"{TSV}: identical ({rows} rows)")
        return 0
    parent, change = (tsv[side].decode().split("\n") for side in ("parent", "change"))
    n = max(len(parent), len(change))
    parent += ["<none>"] * (n - len(parent))
    change += ["<none>"] * (n - len(change))
    i = next(i for i in range(n) if parent[i] != change[i])
    print(f"{TSV} differs first at row {i + 1}:\n  parent: {parent[i]}\n  change: {change[i]}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
