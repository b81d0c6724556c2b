#!/usr/bin/env python3
"""Build and run the benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run compiles the repository's main
sources together with the benchmark code (an sbt build of its own in this
directory) and caches the classpath under perfbench/target; later runs
rebuild only when a source file changed. The benchmark then runs in one JVM
on a fixed heap. Its progress lines go to stdout and its last stdout line is
the JSON result. The exit code is non-zero, with no result line, when the
build or the run fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCES = [os.path.join(ROOT, "src", "main", "scala"), os.path.join(HERE, "src")]
BUILD_FILES = [os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties")]
TARGET = os.path.join(HERE, "target")
CLASSPATH_FILE = os.path.join(TARGET, "bench-classpath.txt")
STAMP_FILE = os.path.join(TARGET, "bench-stamp.txt")

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
# A young generation large enough that training collects a few times per run
# instead of hundreds: collection pauses were the largest source of noise.
JVM_FLAGS = ["-Xms2g", "-Xmx2g", "-Xmn1400m", "-XX:+UseParallelGC", "-XX:ParallelGCThreads=2", "-Xss8m"]


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def source_stamp():
    h = hashlib.sha256()
    files = list(BUILD_FILES)
    for top in SOURCES:
        for d, _, names in os.walk(top):
            files += [os.path.join(d, n) for n in names if n.endswith((".scala", ".java"))]
    for f in sorted(files):
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def sbt_env():
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    if "SBT_OPTS" not in env:
        opts = ["-Dsbt.offline=true", "-Xmx2g"]
        repos = os.path.expanduser("~/.sbt/repositories")
        if os.path.exists(repos):
            opts += ["-Dsbt.override.build.repos=true", f"-Dsbt.repository.config={repos}"]
        env["SBT_OPTS"] = " ".join(opts)
    return env


def build():
    """Compile if any source changed; return the runtime classpath."""
    stamp = source_stamp()
    if os.path.exists(CLASSPATH_FILE) and os.path.exists(STAMP_FILE):
        with open(STAMP_FILE) as fh:
            if fh.read().strip() == stamp:
                with open(CLASSPATH_FILE) as fh:
                    return fh.read().strip()
    log("building (sbt compile)")
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           "compile", "export Runtime/fullClasspath"]
    proc = subprocess.run(cmd, cwd=HERE, env=sbt_env(), stdin=subprocess.DEVNULL,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                          timeout=BUILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines or lines[-1].startswith("["):
        sys.stderr.write(proc.stdout[-4000:])
        raise SystemExit("perfbench: build failed")
    classpath = lines[-1].strip()
    os.makedirs(TARGET, exist_ok=True)
    with open(CLASSPATH_FILE, "w") as fh:
        fh.write(classpath + "\n")
    with open(STAMP_FILE, "w") as fh:
        fh.write(stamp + "\n")
    return classpath


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    if not os.path.isdir(SOURCES[0]):
        raise SystemExit(f"perfbench: no program sources at {os.path.relpath(SOURCES[0])}; "
                         "run from a full checkout of the repository")
    classpath = build()
    cmd = ["java", *JVM_FLAGS, "-cp", classpath, "perfbench.Main",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    watchdog.start()
    last = None
    try:
        for line in proc.stdout:
            line = line.rstrip("\n")
            if last is not None:
                print(last, flush=True)
            last = line
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or last is None or not last.startswith("{"):
        if last is not None and not last.startswith("{"):
            print(last, flush=True)
        raise SystemExit(f"perfbench: benchmark exited with code {proc.returncode} and no result")
    print(last, flush=True)


if __name__ == "__main__":
    main()
